#include "model/spec_io.hpp"

#include <cmath>
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

    if (keyword == "resource") {
      std::string name, kind, bitrate_text;
      double base_cost = 0, cost_per_byte = 0, bitrate = 500e3;
      if (!(ss >> name >> kind >> base_cost >> cost_per_byte))
        Fail(lineno, "resource needs: name kind base_cost cost_per_byte");
      if (ss >> bitrate_text) {  // optional
        try {
          bitrate = util::ParseReal("bitrate", bitrate_text);
        } catch (const std::invalid_argument& e) {
          Fail(lineno, "resource " + name + ": " + e.what());
        }
      }
      const ResourceKind resource_kind = KindFromString(kind, lineno);
      if (resource_kind == ResourceKind::Bus && !(bitrate > 0.0)) {
        Fail(lineno, "bus " + name + ": bitrate must be finite and > 0, got " +
                         bitrate_text);
      }
      if (resources.count(name)) Fail(lineno, "duplicate resource " + name);
      resources[name] = result.spec.Architecture().AddResource(
          {name, resource_kind, base_cost, cost_per_byte, bitrate});
    } else if (keyword == "link") {
      std::string a, b;
      if (!(ss >> a >> b)) Fail(lineno, "link needs two resources");
      if (!resources.count(a)) Fail(lineno, "unknown resource " + a);
      if (!resources.count(b)) Fail(lineno, "unknown resource " + b);
      try {
        result.spec.Architecture().AddLink(resources[a], resources[b]);
      } catch (const std::invalid_argument& e) {
        Fail(lineno, e.what());
      }
    } else if (keyword == "task") {
      std::string name;
      if (!(ss >> name)) Fail(lineno, "task needs a name");
      if (tasks.count(name)) Fail(lineno, "duplicate task " + name);
      Task t;
      t.name = name;
      t.kind = TaskKind::Functional;
      tasks[name] = result.spec.Application().AddTask(t);
    } else if (keyword == "message") {
      std::string name, sender, receivers;
      std::uint32_t payload = 0;
      double period = 0;
      if (!(ss >> name >> sender >> receivers >> payload >> period))
        Fail(lineno, "message needs: name sender receivers payload period");
      if (!tasks.count(sender)) Fail(lineno, "unknown task " + sender);
      // The limits can::CanBus::AddMessage enforces, checked here so a bad
      // spec names its line instead of failing deep in the analysis.
      if (!std::isfinite(period) || !(period > 0.0)) {
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
      std::stringstream rs(receivers);
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
      std::string task, resource;
      if (!(ss >> task >> resource)) Fail(lineno, "mapping needs task resource");
      if (!tasks.count(task)) Fail(lineno, "unknown task " + task);
      if (!resources.count(resource))
        Fail(lineno, "unknown resource " + resource);
      try {
        result.spec.AddMapping(tasks[task], resources[resource]);
      } catch (const std::invalid_argument& e) {
        Fail(lineno, e.what());
      }
    } else if (keyword == "profile") {
      std::string ecu;
      bist::BistProfile p;
      if (!(ss >> ecu >> p.profile_number >> p.num_random_patterns >>
            p.fault_coverage_percent >> p.runtime_ms >> p.data_bytes)) {
        Fail(lineno,
             "profile needs: ecu number prps coverage runtime_ms data_bytes");
      }
      if (!resources.count(ecu)) Fail(lineno, "unknown resource " + ecu);
      result.profiles[resources[ecu]].push_back(p);
    } else if (keyword == "cuttype") {
      std::string ecu;
      std::uint32_t type = 0;
      if (!(ss >> ecu >> type)) Fail(lineno, "cuttype needs: ecu type");
      if (!resources.count(ecu)) Fail(lineno, "unknown resource " + ecu);
      result.cut_types[resources[ecu]] = type;
    } else {
      Fail(lineno, "unknown keyword: " + keyword);
    }
  }
  return result;
}

ParsedSpec ParseSpecString(const std::string& text) {
  std::istringstream ss(text);
  return ParseSpec(ss);
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
