// SAT-decoding: genotype (priorities + phases over mapping variables) ->
// feasible implementation x = (A, B, W).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dse/encoding.hpp"
#include "moea/genotype.hpp"

namespace bistdse::dse {

struct DecoderStats {
  std::uint64_t decodes = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t validation_failures = 0;
  /// Time spent inside sat::Solver::Solve(), summed over decodes. An
  /// island decodes on several shards at once (EvaluationEngine), and their
  /// times add up: this is thread time, not wall time.
  double decode_seconds = 0.0;
  /// Per-phase counters of the underlying solver (search / propagation),
  /// snapshotted after the latest decode; summed over shards when merged.
  sat::SolverStats solver;

  void MergeFrom(const DecoderStats& o) {
    decodes += o.decodes;
    infeasible += o.infeasible;
    validation_failures += o.validation_failures;
    decode_seconds += o.decode_seconds;
    solver.MergeFrom(o.solver);
  }
};

/// Turns genotypes into the solver's decision policy: branch on the gene
/// variables in moea::DecisionOrder, each with its gene's phase. The buffers
/// persist across decodes.
class GenotypePolicy {
 public:
  /// Throws std::invalid_argument unless `genotype` holds one priority and
  /// one phase per variable and every priority is finite.
  void Apply(const moea::Genotype& genotype, std::span<const sat::Var> vars,
             sat::Solver& solver);

 private:
  moea::DecisionOrder order_;
  std::vector<sat::Var> var_order_;
  std::vector<std::uint8_t> phases_;
};

class SatDecoder {
 public:
  /// A decoder over its own EncodedProblem. `spec` and `augmentation` must
  /// outlive the decoder.
  SatDecoder(const model::Specification& spec,
             const model::BistAugmentation& augmentation,
             bool validate_each_decode = false);
  /// A decoder over a shared problem: its own solver (assignment, watches,
  /// learned clauses) and policy buffers over the problem's formula. Any
  /// number of such decoders may decode at once, one per thread.
  explicit SatDecoder(std::shared_ptr<const EncodedProblem> problem,
                      bool validate_each_decode = false);

  /// Genes required per genotype (= number of mapping options).
  std::size_t GenotypeSize() const { return problem_->MappingVars().size(); }

  /// Decodes one genotype into `impl`, reusing the buffers its previous
  /// contents hold. false when the instance is infeasible under the
  /// requested policy (with a correct specification this cannot happen — the
  /// instance itself is satisfiable — so false signals a modeling error);
  /// `impl` is then unspecified.
  bool DecodeInto(const moea::Genotype& genotype, model::Implementation& impl);
  /// DecodeInto a fresh Implementation; nullopt when infeasible.
  std::optional<model::Implementation> Decode(const moea::Genotype& genotype);

  const DecoderStats& Stats() const { return stats_; }

 private:
  std::shared_ptr<const EncodedProblem> problem_;
  sat::Solver solver_;
  GenotypePolicy policy_;
  bool validate_each_decode_;
  DecoderStats stats_;
};

}  // namespace bistdse::dse
