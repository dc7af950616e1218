#include "model/spec_io.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/parse.hpp"

namespace bistdse::model {

namespace {

[[noreturn]] void Fail(std::size_t line, const std::string& msg) {
  throw std::runtime_error("spec line " + std::to_string(line) + ": " + msg);
}

std::string Number(double value) {
  std::ostringstream ss;
  ss << value;
  return ss.str();
}

ResourceKind KindFromString(const std::string& s, std::size_t line) {
  if (s == "ecu") return ResourceKind::Ecu;
  if (s == "gateway") return ResourceKind::Gateway;
  if (s == "bus") return ResourceKind::Bus;
  if (s == "sensor") return ResourceKind::Sensor;
  if (s == "actuator") return ResourceKind::Actuator;
  Fail(line, "unknown resource kind: " + s);
}

std::string KindToString(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::Ecu: return "ecu";
    case ResourceKind::Gateway: return "gateway";
    case ResourceKind::Bus: return "bus";
    case ResourceKind::Sensor: return "sensor";
    case ResourceKind::Actuator: return "actuator";
  }
  return "?";
}

}  // namespace

ParsedSpec ParseSpec(std::istream& in) {
  ParsedSpec result;
  std::map<std::string, ResourceId> resources;
  std::map<std::string, TaskId> tasks;

  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    if (auto hash = raw.find('#'); hash != std::string::npos) raw.resize(hash);
    std::istringstream ss(raw);
    std::string keyword;
    if (!(ss >> keyword)) continue;
    std::vector<std::string> f;  // the fields after the keyword
    for (std::string token; ss >> token;) f.push_back(token);
    const std::string subject = keyword + (f.empty() ? "" : " " + f[0]);

    // Requires at least `min` fields and rejects any after the `max`-th.
    const auto fields = [&](std::size_t min, std::size_t max,
                            const char* usage) {
      if (f.size() < min) Fail(lineno, keyword + " needs: " + usage);
      if (f.size() > max) {
        Fail(lineno, subject + ": unexpected '" + f[max] +
                         "' after the last field");
      }
    };
    // Field `i` read strictly by `parse` (util::ParseU32/U64/Real).
    const auto number = [&](auto parse, std::size_t i, const char* field) {
      try {
        return parse(field, f[i]);
      } catch (const std::invalid_argument& e) {
        Fail(lineno, subject + ": " + e.what());
      }
    };
    const auto non_negative = [&](std::size_t i, const char* field) {
      const double value = number(util::ParseReal, i, field);
      if (value < 0.0) {
        Fail(lineno, subject + ": " + field + " must be >= 0, got " + f[i]);
      }
      return value;
    };

    if (keyword == "resource") {
      fields(4, 5, "name kind base_cost cost_per_byte [bitrate_bps]");
      const std::string& name = f[0];
      const double base_cost = non_negative(2, "base_cost");
      const double cost_per_byte = non_negative(3, "cost_per_byte");
      const double bitrate =
          f.size() > 4 ? number(util::ParseReal, 4, "bitrate") : 500e3;
      const ResourceKind resource_kind = KindFromString(f[1], lineno);
      if (resource_kind == ResourceKind::Bus && !(bitrate > 0.0)) {
        Fail(lineno, "bus " + name + ": bitrate must be finite and > 0, got " +
                         f[4]);
      }
      if (resources.count(name)) Fail(lineno, "duplicate resource " + name);
      resources[name] = result.spec.Architecture().AddResource(
          {name, resource_kind, base_cost, cost_per_byte, bitrate});
    } else if (keyword == "link") {
      fields(2, 2, "two resources");
      const std::string &a = f[0], &b = f[1];
      if (!resources.count(a)) Fail(lineno, "unknown resource " + a);
      if (!resources.count(b)) Fail(lineno, "unknown resource " + b);
      try {
        result.spec.Architecture().AddLink(resources[a], resources[b]);
      } catch (const std::invalid_argument& e) {
        Fail(lineno, e.what());
      }
    } else if (keyword == "task") {
      fields(1, 1, "a name");
      const std::string& name = f[0];
      if (tasks.count(name)) Fail(lineno, "duplicate task " + name);
      Task t;
      t.name = name;
      t.kind = TaskKind::Functional;
      tasks[name] = result.spec.Application().AddTask(t);
    } else if (keyword == "message") {
      fields(5, 5, "name sender receivers payload period");
      const std::string &name = f[0], &sender = f[1];
      const std::uint32_t payload = number(util::ParseU32, 3, "payload");
      const double period = number(util::ParseReal, 4, "period");
      if (!tasks.count(sender)) Fail(lineno, "unknown task " + sender);
      // The limits can::CanBus::AddMessage enforces, checked here so a bad
      // spec names its line instead of failing deep in the analysis.
      if (!(period > 0.0)) {
        Fail(lineno, "message " + name +
                         ": period must be finite and > 0, got " +
                         Number(period));
      }
      if (payload > 8) {
        Fail(lineno, "message " + name +
                         ": payload must be at most 8 bytes, got " +
                         std::to_string(payload));
      }
      Message m;
      m.name = name;
      m.sender = tasks[sender];
      m.payload_bytes = payload;
      m.period_ms = period;
      std::stringstream rs(f[2]);
      std::string recv;
      while (std::getline(rs, recv, ',')) {
        if (!tasks.count(recv)) Fail(lineno, "unknown task " + recv);
        m.receivers.push_back(tasks[recv]);
      }
      try {
        result.spec.Application().AddMessage(m);
      } catch (const std::invalid_argument& e) {
        Fail(lineno, e.what());
      }
    } else if (keyword == "mapping") {
      fields(2, 2, "task resource");
      const std::string &task = f[0], &resource = f[1];
      if (!tasks.count(task)) Fail(lineno, "unknown task " + task);
      if (!resources.count(resource))
        Fail(lineno, "unknown resource " + resource);
      try {
        result.spec.AddMapping(tasks[task], resources[resource]);
      } catch (const std::invalid_argument& e) {
        Fail(lineno, e.what());
      }
    } else if (keyword == "profile") {
      fields(6, 6, "ecu number prps coverage runtime_ms data_bytes");
      bist::BistProfile p;
      p.profile_number = number(util::ParseU32, 1, "number");
      p.num_random_patterns = number(util::ParseU64, 2, "prps");
      p.fault_coverage_percent = number(util::ParseReal, 3, "coverage");
      if (!(p.fault_coverage_percent >= 0.0 &&
            p.fault_coverage_percent <= 100.0)) {
        Fail(lineno, subject + ": coverage must be in [0, 100], got " + f[3]);
      }
      p.runtime_ms = non_negative(4, "runtime_ms");
      p.data_bytes = number(util::ParseU64, 5, "data_bytes");
      if (!resources.count(f[0])) Fail(lineno, "unknown resource " + f[0]);
      result.profiles[resources[f[0]]].push_back(p);
    } else if (keyword == "cuttype") {
      fields(2, 2, "ecu type");
      const std::uint32_t type = number(util::ParseU32, 1, "type");
      if (!resources.count(f[0])) Fail(lineno, "unknown resource " + f[0]);
      result.cut_types[resources[f[0]]] = type;
    } else {
      Fail(lineno, "unknown keyword: " + keyword);
    }
  }
  return result;
}

ParsedSpec ParseSpecFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path);
  return ParseSpec(f);
}

void WriteSpec(
    const Specification& spec,
    const std::map<ResourceId, std::vector<bist::BistProfile>>& profiles,
    const std::map<ResourceId, std::uint32_t>& cut_types, std::ostream& out) {
  const auto& arch = spec.Architecture();
  const auto& app = spec.Application();

  out << "# bistdse specification\n";
  for (ResourceId r = 0; r < arch.ResourceCount(); ++r) {
    const Resource& res = arch.GetResource(r);
    out << "resource " << res.name << ' ' << KindToString(res.kind) << ' '
        << res.base_cost << ' ' << res.cost_per_byte;
    if (res.kind == ResourceKind::Bus) out << ' ' << res.bus_bitrate_bps;
    out << '\n';
  }
  for (ResourceId r = 0; r < arch.ResourceCount(); ++r) {
    for (ResourceId n : arch.Neighbors(r)) {
      if (n > r) {
        out << "link " << arch.GetResource(r).name << ' '
            << arch.GetResource(n).name << '\n';
      }
    }
  }
  for (TaskId t = 0; t < app.TaskCount(); ++t) {
    if (app.GetTask(t).kind != TaskKind::Functional) continue;
    out << "task " << app.GetTask(t).name << '\n';
  }
  for (MessageId c = 0; c < app.MessageCount(); ++c) {
    const Message& m = app.GetMessage(c);
    if (m.diagnostic) continue;
    out << "message " << m.name << ' ' << app.GetTask(m.sender).name << ' ';
    for (std::size_t i = 0; i < m.receivers.size(); ++i) {
      if (i) out << ',';
      out << app.GetTask(m.receivers[i]).name;
    }
    out << ' ' << m.payload_bytes << ' ' << m.period_ms << '\n';
  }
  for (const MappingOption& m : spec.Mappings()) {
    if (app.GetTask(m.task).kind != TaskKind::Functional) continue;
    out << "mapping " << app.GetTask(m.task).name << ' '
        << arch.GetResource(m.resource).name << '\n';
  }
  for (const auto& [ecu, profile_set] : profiles) {
    for (const auto& p : profile_set) {
      out << "profile " << arch.GetResource(ecu).name << ' '
          << p.profile_number << ' ' << p.num_random_patterns << ' '
          << p.fault_coverage_percent << ' ' << p.runtime_ms << ' '
          << p.data_bytes << '\n';
    }
  }
  for (const auto& [ecu, type] : cut_types) {
    out << "cuttype " << arch.GetResource(ecu).name << ' ' << type << '\n';
  }
}

void WriteImplementation(const Specification& spec, const Implementation& impl,
                         std::ostream& out) {
  out << "# bistdse implementation (binding; routing is derived)\n";
  for (std::size_t m : impl.binding) {
    const MappingOption& option = spec.Mappings()[m];
    out << "bind " << spec.Application().GetTask(option.task).name << ' '
        << spec.Architecture().GetResource(option.resource).name << '\n';
  }
}

Implementation ReadImplementation(const Specification& spec,
                                  std::istream& in) {
  std::map<std::string, TaskId> tasks;
  for (TaskId t = 0; t < spec.Application().TaskCount(); ++t) {
    tasks[spec.Application().GetTask(t).name] = t;
  }
  std::map<std::string, ResourceId> resources;
  for (ResourceId r = 0; r < spec.Architecture().ResourceCount(); ++r) {
    resources[spec.Architecture().GetResource(r).name] = r;
  }

  Implementation impl;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (auto hash = line.find('#'); hash != std::string::npos)
      line.resize(hash);
    std::istringstream ss(line);
    std::string keyword, task, resource;
    if (!(ss >> keyword)) continue;
    if (keyword != "bind" || !(ss >> task >> resource)) {
      Fail(lineno, "expected: bind <task> <resource>");
    }
    if (!tasks.count(task)) Fail(lineno, "unknown task " + task);
    if (!resources.count(resource)) Fail(lineno, "unknown resource " + resource);
    bool found = false;
    for (std::size_t m : spec.MappingsOfTask(tasks[task])) {
      if (spec.Mappings()[m].resource == resources[resource]) {
        impl.binding.push_back(m);
        found = true;
        break;
      }
    }
    if (!found) {
      Fail(lineno, "no mapping option " + task + " -> " + resource);
    }
  }
  if (!CompleteRoutingAndAllocation(spec, RouteTable(spec.Architecture()),
                                    impl)) {
    throw std::runtime_error("implementation is unroutable on this spec");
  }
  return impl;
}

}  // namespace bistdse::model
