// VACANCY — the historical Schelling mechanism vs the paper's Glauber
// abstraction. The paper (Sec. I-A) recounts the original model: unhappy
// agents move to vacant locations where they will be happy; the Glauber
// flip ("the agent moved out of the system and a new one occupied its
// location") is the open-system idealization the theorems analyze. This
// bench runs both on matched parameters and compares the segregation they
// produce (similarity index and correlation length), plus the vacancy
// density's effect.
#include <cstdio>

#include "analysis/correlation.h"
#include "core/dynamics.h"
#include "core/model.h"
#include "core/vacancy.h"
#include "grid/box_sum.h"
#include "io/table.h"
#include "util/args.h"
#include "util/stats.h"

namespace {

double similarity_of_spins(const std::vector<std::int8_t>& spins, int n,
                           int w) {
  // Same-type fraction among the (2w+1)^2 - 1 other neighbors, averaged.
  // The per-site same-type tallies come from the engine's separable box
  // sums — O(n^2) total instead of an O(n^2 w^2) hand-rolled window loop.
  std::vector<std::int32_t> plus_indicator(spins.size());
  for (std::size_t i = 0; i < spins.size(); ++i) {
    plus_indicator[i] = spins[i] > 0 ? 1 : 0;
  }
  const auto plus = seg::box_sum_torus(plus_indicator, n, w);
  const int N = (2 * w + 1) * (2 * w + 1);
  double sum = 0.0;
  for (std::size_t i = 0; i < spins.size(); ++i) {
    const std::int32_t same =
        (spins[i] > 0 ? plus[i] : N - plus[i]) - 1;  // excludes self
    sum += static_cast<double>(same) / static_cast<double>(N - 1);
  }
  return sum / (static_cast<double>(n) * n);
}

}  // namespace

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  const int n = static_cast<int>(args.get_int("n", 64));
  const int w = static_cast<int>(args.get_int("w", 2));
  const double tau = args.get_double("tau", 0.45);
  const std::size_t trials = args.get_u64("trials", 4);
  const std::uint64_t seed = args.get_u64("seed", 41);
  if (args.report_errors()) return 1;

  std::printf("== Glauber (open system) vs vacancy relocation (closed "
              "system), tau=%.2f, w=%d, n=%d ==\n\n",
              tau, w, n);

  // Glauber reference.
  seg::RunningStats g_sim, g_len, g_flips;
  for (std::size_t t = 0; t < trials; ++t) {
    seg::ModelParams p{.n = n, .w = w, .tau = tau, .p = 0.5};
    seg::Rng init = seg::Rng::stream(seed + t, 0);
    seg::SchellingModel m(p, init);
    seg::Rng dyn = seg::Rng::stream(seed + t, 1);
    g_flips.add(static_cast<double>(seg::run_glauber(m, dyn).flips));
    g_sim.add(similarity_of_spins(m.spins(), n, w));
    g_len.add(seg::correlation_length(
        seg::pair_correlation(m.spins(), n, n / 4)));
  }

  seg::TablePrinter table({"dynamics", "vacancy", "moves/flips",
                           "similarity", "corr length", "terminated%"});
  table.new_row()
      .add("glauber")
      .add("-")
      .add(g_flips.mean(), 0)
      .add(g_sim.mean(), 4)
      .add(g_len.mean(), 2)
      .add(100.0, 0);

  for (const double vacancy : {0.05, 0.10, 0.20, 0.30}) {
    seg::RunningStats sim, len, moves, term;
    for (std::size_t t = 0; t < trials; ++t) {
      seg::VacancyParams p{.n = n, .w = w, .tau = tau, .vacancy = vacancy,
                           .p = 0.5, .relocation_attempts = 32};
      seg::Rng init = seg::Rng::stream(seed + 100 + t,
                                       static_cast<std::uint64_t>(vacancy *
                                                                  100));
      seg::VacancyModel m(p, init);
      seg::Rng dyn = seg::Rng::stream(seed + 200 + t,
                                      static_cast<std::uint64_t>(vacancy *
                                                                 100));
      seg::VacancyRunOptions opt;
      opt.max_moves = 400000;
      const auto r = seg::run_vacancy(m, dyn, opt);
      moves.add(static_cast<double>(r.moves));
      term.add(r.terminated ? 1.0 : 0.0);
      sim.add(m.similarity_index());
      // Correlation over occupied sites only: map vacancies to +1/-1
      // alternately would bias; instead compute on the +/-1 majority
      // field with vacancies assigned the local majority sign.
      std::vector<std::int8_t> filled(m.sites());
      for (std::uint32_t id = 0; id < m.site_count(); ++id) {
        if (filled[id] == 0) {
          filled[id] = m.plus_count(id) * 2 >= m.occupied_count(id)
                           ? 1
                           : -1;
        }
      }
      len.add(seg::correlation_length(
          seg::pair_correlation(filled, n, n / 4)));
    }
    char label[16];
    std::snprintf(label, sizeof(label), "%.2f", vacancy);
    table.new_row()
        .add("vacancy")
        .add(label)
        .add(moves.mean(), 0)
        .add(sim.mean(), 4)
        .add(len.mean(), 2)
        .add(100.0 * term.mean(), 0);
  }
  table.print();

  std::printf("\nexpected: both mechanisms push the similarity index far "
              "above the ~0.5 well-mixed baseline — Schelling's original "
              "observation and the paper's abstraction agree "
              "qualitatively; relocation leaves a slightly rougher "
              "texture (shorter correlation length) since movers must "
              "find vacancies.\n");
  return 0;
}
