// Quickstart: model a minimal E/E subnet, add BIST profiles, explore the
// design space, and print the resulting trade-off front.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "dse/parallel.hpp"
#include "model/specification.hpp"

using namespace bistdse;

int main() {
  // --- 1. architecture: two ECUs and a sensor/actuator pair on one CAN bus,
  //        plus the central gateway that hosts the fail-data collector.
  model::Specification spec;
  auto& arch = spec.Architecture();
  const auto gateway =
      arch.AddResource({"gateway", model::ResourceKind::Gateway, 20.0, 1e-6, 0});
  const auto bus =
      arch.AddResource({"can0", model::ResourceKind::Bus, 1.0, 0, 500e3});
  const auto ecu1 =
      arch.AddResource({"ecu1", model::ResourceKind::Ecu, 10.0, 2e-5, 0});
  const auto ecu2 =
      arch.AddResource({"ecu2", model::ResourceKind::Ecu, 14.0, 2e-5, 0});
  const auto sensor =
      arch.AddResource({"sensor", model::ResourceKind::Sensor, 2.0, 0, 0});
  const auto act =
      arch.AddResource({"act", model::ResourceKind::Actuator, 3.0, 0, 0});
  for (auto r : {gateway, ecu1, ecu2, sensor, act}) arch.AddLink(r, bus);

  // --- 2. application: sense -> control -> actuate.
  auto& app = spec.Application();
  model::Task sense_task;
  sense_task.name = "sense";
  const auto t_sense = app.AddTask(sense_task);
  model::Task ctrl_task;
  ctrl_task.name = "control";
  const auto t_ctrl = app.AddTask(ctrl_task);
  model::Task act_task;
  act_task.name = "actuate";
  const auto t_act = app.AddTask(act_task);

  model::Message m1;
  m1.name = "speed";
  m1.sender = t_sense;
  m1.receivers = {t_ctrl};
  m1.payload_bytes = 2;
  m1.period_ms = 10;
  app.AddMessage(m1);
  model::Message m2;
  m2.name = "torque";
  m2.sender = t_ctrl;
  m2.receivers = {t_act};
  m2.payload_bytes = 4;
  m2.period_ms = 10;
  app.AddMessage(m2);

  spec.AddMapping(t_sense, sensor);
  spec.AddMapping(t_ctrl, ecu1);  // the controller may run on either ECU
  spec.AddMapping(t_ctrl, ecu2);
  spec.AddMapping(t_act, act);

  // --- 3. BIST profiles: two options per ECU (fast/cheap vs thorough).
  bist::BistProfile thorough;
  thorough.profile_number = 1;
  thorough.num_random_patterns = 500;
  thorough.fault_coverage_percent = 99.8;
  thorough.runtime_ms = 4.9;
  thorough.data_bytes = 2400000;
  bist::BistProfile lean = thorough;
  lean.profile_number = 2;
  lean.fault_coverage_percent = 95.7;
  lean.runtime_ms = 1.7;
  lean.data_bytes = 455000;

  std::map<model::ResourceId, std::vector<bist::BistProfile>> profiles;
  profiles[ecu1] = {thorough, lean};
  profiles[ecu2] = {thorough, lean};
  const auto augmentation = model::AugmentWithBist(spec, profiles);
  spec.Validate();

  // --- 4. explore: NSGA-II over SAT-decoding genotypes.
  dse::ExplorationConfig config;
  config.evaluations = 2000;
  config.population_size = 32;
  config.validate_each_decode = true;
  const auto result = dse::ExploreParallel(spec, augmentation, config, 1);

  std::printf("evaluated %zu implementations in %.2f s (%.0f/s)\n",
              result.evaluations, result.wall_seconds, result.Throughput());
  std::printf("%zu Pareto-optimal implementations:\n\n", result.pareto.size());
  std::printf("   cost  | quality  | shut-off   | pattern storage\n");
  std::printf("  -------+----------+------------+----------------\n");
  for (const auto& entry : result.pareto) {
    const auto& o = entry.objectives;
    std::printf("  %6.1f | %6.2f %% | %7.1f ms | gw %7lu B, local %7lu B\n",
                o.monetary_cost, o.test_quality_percent, o.shutoff_time_ms,
                static_cast<unsigned long>(o.gateway_memory_bytes),
                static_cast<unsigned long>(o.distributed_memory_bytes));
  }
  return 0;
}
