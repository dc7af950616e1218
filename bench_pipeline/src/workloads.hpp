// The four workloads of the pipeline benchmark. Each builds its inputs from
// `options.seed`, repeats its set-up (RepeatSetup), then repeats passes of
// flows until `options.seconds` run out, timing each layer call with
// `spans` and checking every output. See README.md for why each workload
// exists.
#pragma once

#include "common.hpp"

namespace bistdse::pipeline {

/// Design flow on the paper subnet: CUT -> profiles -> DSE -> pick ->
/// adversarial campaign -> fault dictionaries. Simulation-heavy.
Report RunDesignCasestudy(const Options& options, SpanRecorder& spans);

/// Design flow over generated corpus topologies: DSE -> pick -> campaign.
/// DSE-heavy, no fault simulation.
Report RunDesignCorpus(const Options& options, SpanRecorder& spans);

/// Field flow: open-loop fail-data uploads into the diagnosis server at a
/// fixed offered rate, plus a capacity ladder. Read path only.
Report RunFieldSteady(const Options& options, SpanRecorder& spans);

/// Field flow with a lossier bus and dictionary rollouts (Extend + Reload)
/// every 1000 answered requests. Writes beside reads.
Report RunFieldReload(const Options& options, SpanRecorder& spans);

}  // namespace bistdse::pipeline
