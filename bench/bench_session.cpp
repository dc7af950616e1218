// Session-executor benchmark: frame-accurate replay of all 15 case-study
// BIST sessions, at zero loss and at 1 % injected frame loss. Reports the
// executor's wall-clock throughput (simulated milliseconds per wall second,
// sessions per second), the simulated-vs-analytical download deviation, and
// the retry counts, and writes them to BENCH_session.json.
//
// Env: BISTDSE_SESS_ITERS (default 3) repetitions per loss rate.
// Arg: output path (default BENCH_session.json).
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_report.hpp"
#include "bench_util.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/decoder.hpp"
#include "net/session_executor.hpp"

using namespace bistdse;

namespace {

/// Every ECU selects Table-I profile 4 with gateway pattern storage, so all
/// sessions exercise the mirrored download + upload path.
model::Implementation RemoteStorageImpl(const casestudy::CaseStudy& cs,
                                        dse::SatDecoder& decoder) {
  moea::Genotype g;
  g.priorities.assign(decoder.GenotypeSize(), 0.5);
  g.phases.assign(decoder.GenotypeSize(), 0);
  const auto& mappings = cs.spec.Mappings();
  for (const auto& [ecu, programs] : cs.augmentation.programs_by_ecu) {
    const auto& prog = programs[3];
    for (std::size_t m : cs.spec.MappingsOfTask(prog.test_task)) {
      g.phases[m] = 1;
      g.priorities[m] = 0.9;
    }
    for (std::size_t m : cs.spec.MappingsOfTask(prog.data_task)) {
      const bool remote = mappings[m].resource != ecu;
      g.phases[m] = remote ? 1 : 0;
      g.priorities[m] = remote ? 0.8 : 0.1;
    }
  }
  return *decoder.Decode(g);
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_session.json";
  bench::PrintHeader(
      "Session executor — simulated vs analytical session timing",
      "All 15 case-study ECUs download + run + upload their BIST session on\n"
      "the discrete-event bus network (Table-I profile 4, data x 1/256,\n"
      "gateway pattern storage). Zero loss cross-checks Eq. 1 within 5 %;\n"
      "1 % frame loss must complete via transport retries.");

  const auto iters = bench::EnvU64("BISTDSE_SESS_ITERS", 3);
  auto cs = casestudy::BuildCaseStudy(casestudy::ScaledTableI(1.0 / 256, 4));
  dse::SatDecoder decoder(cs.spec, cs.augmentation);
  const auto impl = RemoteStorageImpl(cs, decoder);

  bench::Report report("session_executor");
  report.Run().Set("iterations", iters);
  for (const double loss : {0.0, 0.01}) {
    net::SessionExecutorOptions options;
    options.faults.drop_rate = loss;
    options.faults.seed = 7;
    net::SessionExecutor executor(cs.spec, cs.augmentation, options);

    net::SessionExecutionReport result;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) result = executor.Execute(impl);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() /
        static_cast<double>(iters);
    double simulated_ms = 0.0;
    for (const auto& s : result.sessions) simulated_ms += s.simulated_total_ms;

    std::printf(
        "loss %.2f %%: %zu sessions (%s) in %.3f s wall — %.0f simulated "
        "ms/wall s, max download error %.2f %%, %llu retransmissions\n",
        100.0 * loss, result.sessions.size(),
        result.all_completed ? "all completed" : "INCOMPLETE", wall,
        simulated_ms / wall, 100.0 * result.max_download_rel_error,
        static_cast<unsigned long long>(result.total_retransmissions));
    report.AddRow("results")
        .Set("frame_loss", loss)
        .Set("sessions", result.sessions.size())
        .Set("all_completed", result.all_completed)
        .Set("max_download_rel_error", result.max_download_rel_error)
        .Set("retransmissions", result.total_retransmissions)
        .Set("frames_dropped", result.total_frames_dropped)
        .Set("sessions_per_second",
             static_cast<double>(result.sessions.size()) / wall)
        .Set("simulated_ms_per_wall_second", simulated_ms / wall);

    // Every session must complete; at zero loss the simulation must land
    // within 5 % of Eq. 1 (under injected loss the retries legitimately
    // stretch the downloads).
    const std::string at = "[frame_loss=" + bench::JsonValue(loss) + "]";
    report.Equal("all_completed" + at, result.all_completed, true);
    if (loss == 0.0) {
      report.AtMost("max_download_rel_error" + at,
                    result.max_download_rel_error, 0.05);
    }
  }
  return report.Finish(path);
}
