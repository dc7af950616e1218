#include <gtest/gtest.h>

#include "model/implementation.hpp"
#include "model/specification.hpp"

namespace bistdse::model {
namespace {

/// Small fixture: sensor -> ECU1/ECU2 -> actuator over one bus, plus a
/// gateway on the bus.
struct TinySystem {
  Specification spec;
  ResourceId sensor, ecu1, ecu2, actuator, bus, gateway;
  TaskId t_sense, t_ctrl, t_act;
  MessageId m1, m2;

  TinySystem() {
    auto& arch = spec.Architecture();
    sensor = arch.AddResource({"sensor", ResourceKind::Sensor, 1.0, 0, 0});
    ecu1 = arch.AddResource({"ecu1", ResourceKind::Ecu, 10.0, 0.001, 0});
    ecu2 = arch.AddResource({"ecu2", ResourceKind::Ecu, 12.0, 0.001, 0});
    actuator = arch.AddResource({"act", ResourceKind::Actuator, 2.0, 0, 0});
    bus = arch.AddResource({"can0", ResourceKind::Bus, 3.0, 0, 500e3});
    gateway = arch.AddResource({"gw", ResourceKind::Gateway, 20.0, 0.0005, 0});
    arch.AddLink(sensor, bus);
    arch.AddLink(ecu1, bus);
    arch.AddLink(ecu2, bus);
    arch.AddLink(actuator, bus);
    arch.AddLink(gateway, bus);

    auto& app = spec.Application();
    t_sense = app.AddTask({.name = "sense", .kind = TaskKind::Functional});
    t_ctrl = app.AddTask({.name = "ctrl", .kind = TaskKind::Functional});
    t_act = app.AddTask({.name = "act", .kind = TaskKind::Functional});
    Message msg1;
    msg1.name = "m1";
    msg1.sender = t_sense;
    msg1.receivers = {t_ctrl};
    msg1.payload_bytes = 2;
    msg1.period_ms = 10;
    m1 = app.AddMessage(msg1);
    Message msg2;
    msg2.name = "m2";
    msg2.sender = t_ctrl;
    msg2.receivers = {t_act};
    msg2.payload_bytes = 4;
    msg2.period_ms = 10;
    m2 = app.AddMessage(msg2);
    spec.AddMapping(t_sense, sensor);
    spec.AddMapping(t_ctrl, ecu1);
    spec.AddMapping(t_ctrl, ecu2);
    spec.AddMapping(t_act, actuator);
  }

  RouteTable Routes() const { return RouteTable(spec.Architecture()); }
};

bist::BistProfile MakeProfile(std::uint32_t number, std::uint64_t bytes) {
  bist::BistProfile p;
  p.profile_number = number;
  p.num_random_patterns = 500;
  p.fault_coverage_percent = 99.8;
  p.runtime_ms = 4.87;
  p.data_bytes = bytes;
  return p;
}

TEST(Architecture, ShortestPathOnBusTopology) {
  TinySystem sys;
  const auto path = sys.spec.Architecture().ShortestPath(sys.sensor, sys.ecu1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<ResourceId>{sys.sensor, sys.bus, sys.ecu1}));
  const auto self = sys.spec.Architecture().ShortestPath(sys.bus, sys.bus);
  ASSERT_TRUE(self.has_value());
  EXPECT_EQ(self->size(), 1u);
}

TEST(Architecture, DisconnectedReturnsNullopt) {
  ArchitectureGraph arch;
  const auto a = arch.AddResource({"a", ResourceKind::Ecu, 1, 0, 0});
  const auto b = arch.AddResource({"b", ResourceKind::Ecu, 1, 0, 0});
  EXPECT_FALSE(arch.ShortestPath(a, b).has_value());
}

TEST(Architecture, GatewayLookup) {
  TinySystem sys;
  EXPECT_EQ(sys.spec.Architecture().Gateway(), sys.gateway);
  ArchitectureGraph no_gw;
  no_gw.AddResource({"x", ResourceKind::Ecu, 1, 0, 0});
  EXPECT_THROW(no_gw.Gateway(), std::logic_error);
}

TEST(Application, RejectsBrokenMessages) {
  ApplicationGraph app;
  Task t_def;
  t_def.name = "t";
  const TaskId t = app.AddTask(t_def);
  Message m;
  m.name = "m";
  m.sender = t;
  EXPECT_THROW(app.AddMessage(m), std::invalid_argument);
  m.receivers = {t};
  EXPECT_THROW(app.AddMessage(m), std::invalid_argument);
  m.sender = 99;
  m.receivers = {t};
  EXPECT_THROW(app.AddMessage(m), std::invalid_argument);
}

TEST(Specification, MappingBookkeeping) {
  TinySystem sys;
  EXPECT_EQ(sys.spec.MappingsOfTask(sys.t_ctrl).size(), 2u);
  EXPECT_EQ(sys.spec.MappingsOnResource(sys.ecu1).size(), 1u);
  EXPECT_THROW(sys.spec.AddMapping(sys.t_ctrl, sys.ecu1),
               std::invalid_argument);
  EXPECT_THROW(sys.spec.AddMapping(sys.t_ctrl, sys.bus), std::invalid_argument);
  sys.spec.Validate();
}

TEST(Specification, ValidateRejectsUnmappableMandatoryTask) {
  TinySystem sys;
  Task orphan;
  orphan.name = "orphan";
  sys.spec.Application().AddTask(orphan);
  EXPECT_THROW(sys.spec.Validate(), std::logic_error);
}

TEST(BistAugmentation, BuildsFig3Structure) {
  TinySystem sys;
  std::map<ResourceId, std::vector<bist::BistProfile>> profiles;
  profiles[sys.ecu1] = {MakeProfile(1, 2399185), MakeProfile(2, 994156)};
  const auto aug = AugmentWithBist(sys.spec, profiles);

  const auto& app = sys.spec.Application();
  EXPECT_NE(aug.collect_task, kInvalidId);
  EXPECT_EQ(app.GetTask(aug.collect_task).kind, TaskKind::BistCollect);
  ASSERT_EQ(aug.programs_by_ecu.count(sys.ecu1), 1u);
  const auto& programs = aug.programs_by_ecu.at(sys.ecu1);
  ASSERT_EQ(programs.size(), 2u);

  for (const auto& prog : programs) {
    const Task& test = app.GetTask(prog.test_task);
    const Task& data = app.GetTask(prog.data_task);
    EXPECT_EQ(test.kind, TaskKind::BistTest);
    EXPECT_EQ(data.kind, TaskKind::BistData);
    EXPECT_EQ(test.target_ecu, sys.ecu1);
    // b^T only on its ECU; b^D on the ECU or the gateway.
    ASSERT_EQ(sys.spec.MappingsOfTask(prog.test_task).size(), 1u);
    EXPECT_EQ(
        sys.spec.Mappings()[sys.spec.MappingsOfTask(prog.test_task)[0]].resource,
        sys.ecu1);
    EXPECT_EQ(sys.spec.MappingsOfTask(prog.data_task).size(), 2u);
    // Messages: c^D data->test, c^R test->collect.
    EXPECT_EQ(app.GetMessage(prog.pattern_message).sender, prog.data_task);
    EXPECT_EQ(app.GetMessage(prog.fail_message).receivers[0], aug.collect_task);
  }
  EXPECT_GT(app.GetTask(programs[0].data_task).data_bytes,
            app.GetTask(programs[1].data_task).data_bytes);
  sys.spec.Validate();
}

TEST(BistAugmentation, RejectsNonEcuTarget) {
  TinySystem sys;
  std::map<ResourceId, std::vector<bist::BistProfile>> profiles;
  profiles[sys.bus] = {MakeProfile(1, 100)};
  EXPECT_THROW(AugmentWithBist(sys.spec, profiles), std::invalid_argument);
}

TEST(Implementation, RoutingAndValidationHappyPath) {
  TinySystem sys;
  // Mapping indices: 0 sense->sensor, 1 ctrl->ecu1, 2 ctrl->ecu2,
  // 3 act->actuator.
  Implementation impl;
  impl.binding = {0, 1, 3};
  ASSERT_TRUE(CompleteRoutingAndAllocation(sys.spec, sys.Routes(), impl));
  const auto violations = ValidateImplementation(sys.spec, impl);
  EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations[0]);
  EXPECT_EQ(impl.routing.at(sys.m1),
            (std::vector<ResourceId>{sys.sensor, sys.bus, sys.ecu1}));
  EXPECT_TRUE(impl.allocation[sys.bus]);
  EXPECT_FALSE(impl.allocation[sys.ecu2]);
  EXPECT_FALSE(impl.allocation[sys.gateway]);
}

TEST(Implementation, DetectsMissingMandatoryBinding) {
  TinySystem sys;
  Implementation impl;
  impl.binding = {0, 1};  // actuator task unbound
  CompleteRoutingAndAllocation(sys.spec, sys.Routes(), impl);
  EXPECT_FALSE(ValidateImplementation(sys.spec, impl).empty());
}

TEST(Implementation, DetectsDoubleBinding) {
  TinySystem sys;
  Implementation impl;
  impl.binding = {0, 1, 2, 3};  // ctrl bound twice
  ASSERT_TRUE(CompleteRoutingAndAllocation(sys.spec, sys.Routes(), impl));
  EXPECT_FALSE(ValidateImplementation(sys.spec, impl).empty());

  // The dense binding view keeps ctrl's first binding (ecu1), as
  // BoundResource does, and routing follows it.
  EXPECT_EQ(impl.BoundResources(sys.spec)[sys.t_ctrl], sys.ecu1);
  EXPECT_EQ(impl.BoundResource(sys.spec, sys.t_ctrl), sys.ecu1);
  EXPECT_EQ(impl.routing.at(sys.m1),
            (std::vector<ResourceId>{sys.sensor, sys.bus, sys.ecu1}));
  EXPECT_EQ(impl.routing.at(sys.m2),
            (std::vector<ResourceId>{sys.ecu1, sys.bus, sys.actuator}));

  // Listing the ecu2 option first makes ecu2 the first binding.
  impl.binding = {0, 2, 1, 3};
  ASSERT_TRUE(CompleteRoutingAndAllocation(sys.spec, sys.Routes(), impl));
  EXPECT_EQ(impl.BoundResources(sys.spec)[sys.t_ctrl], sys.ecu2);
  EXPECT_EQ(impl.routing.at(sys.m2),
            (std::vector<ResourceId>{sys.ecu2, sys.bus, sys.actuator}));
}

TEST(Implementation, DetectsBrokenRoute) {
  TinySystem sys;
  Implementation impl;
  impl.binding = {0, 1, 3};
  ASSERT_TRUE(CompleteRoutingAndAllocation(sys.spec, sys.Routes(), impl));
  impl.routing[sys.m1] = {sys.sensor, sys.ecu1};  // skips the bus
  const auto violations = ValidateImplementation(sys.spec, impl);
  bool found = false;
  for (const auto& v : violations) found |= v.find("2g") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(Implementation, Eq2hDiagnosisOnlyResourceRejected) {
  TinySystem sys;
  std::map<ResourceId, std::vector<bist::BistProfile>> profiles;
  profiles[sys.ecu2] = {MakeProfile(1, 1000)};
  const auto aug = AugmentWithBist(sys.spec, profiles);
  const auto& prog = aug.programs_by_ecu.at(sys.ecu2)[0];

  // Functional tasks on the ecu1 path, b^R on the gateway, BIST pair on
  // ecu2 — but no functional task on ecu2: Eq. 2h violation.
  Implementation impl;
  impl.binding = {0, 1, 3};
  impl.binding.push_back(sys.spec.MappingsOfTask(aug.collect_task)[0]);
  impl.binding.push_back(sys.spec.MappingsOfTask(prog.test_task)[0]);
  impl.binding.push_back(sys.spec.MappingsOfTask(prog.data_task)[0]);
  ASSERT_TRUE(CompleteRoutingAndAllocation(sys.spec, sys.Routes(), impl));
  const auto violations = ValidateImplementation(sys.spec, impl);
  bool found = false;
  for (const auto& v : violations) found |= v.find("2h") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(Implementation, Eq3bCouplingViolation) {
  TinySystem sys;
  std::map<ResourceId, std::vector<bist::BistProfile>> profiles;
  profiles[sys.ecu1] = {MakeProfile(1, 1000)};
  const auto aug = AugmentWithBist(sys.spec, profiles);
  const auto& prog = aug.programs_by_ecu.at(sys.ecu1)[0];

  Implementation impl;
  impl.binding = {0, 1, 3};
  impl.binding.push_back(sys.spec.MappingsOfTask(aug.collect_task)[0]);
  impl.binding.push_back(sys.spec.MappingsOfTask(prog.test_task)[0]);
  // b^D deliberately unbound.
  ASSERT_TRUE(CompleteRoutingAndAllocation(sys.spec, sys.Routes(), impl));
  const auto violations = ValidateImplementation(sys.spec, impl);
  bool found = false;
  for (const auto& v : violations) found |= v.find("3b") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(Implementation, FullBistBindingIsFeasible) {
  TinySystem sys;
  std::map<ResourceId, std::vector<bist::BistProfile>> profiles;
  profiles[sys.ecu1] = {MakeProfile(1, 1000)};
  const auto aug = AugmentWithBist(sys.spec, profiles);
  const auto& prog = aug.programs_by_ecu.at(sys.ecu1)[0];

  Implementation impl;
  impl.binding = {0, 1, 3};
  impl.binding.push_back(sys.spec.MappingsOfTask(aug.collect_task)[0]);
  impl.binding.push_back(sys.spec.MappingsOfTask(prog.test_task)[0]);
  // Store patterns at the gateway (second mapping option of b^D).
  impl.binding.push_back(sys.spec.MappingsOfTask(prog.data_task)[1]);
  ASSERT_TRUE(CompleteRoutingAndAllocation(sys.spec, sys.Routes(), impl));
  const auto violations = ValidateImplementation(sys.spec, impl);
  EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations[0]);
  // c^D routed gateway -> bus -> ecu1.
  EXPECT_EQ(impl.routing.at(prog.pattern_message),
            (std::vector<ResourceId>{sys.gateway, sys.bus, sys.ecu1}));
}

}  // namespace
}  // namespace bistdse::model
