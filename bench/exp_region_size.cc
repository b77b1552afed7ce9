// THM1/THM2 — the headline claims: the expected size of the (almost)
// monochromatic region containing an arbitrary agent grows exponentially
// in the neighborhood size N.
//
// The sweep is the built-in `region_size` campaign (tau x w grid with the
// torus side tied to the horizon, n = max(64, 24w)), run through the
// campaign engine; this driver only renders the per-tau tables and the
// log2 E[M] versus N exponential-growth fits. The paper's claim fixes the
// *shape*: the fit should be close to linear (r^2 high) with a positive
// slope; the theorems bracket the asymptotic slope in [a(tau), b(tau)] —
// we print both for comparison (absolute agreement is not expected at
// these finite sizes).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/builtin.h"
#include "campaign/sinks.h"
#include "io/table.h"
#include "theory/constants.h"
#include "theory/exponents.h"
#include "util/args.h"
#include "util/stats.h"

namespace {

void report_tau(const seg::BuiltinCampaign& campaign,
                const seg::CampaignResult& result, std::size_t tau_index) {
  const double tau = campaign.spec.tau[tau_index];
  const std::size_t tau_count = campaign.spec.tau.size();
  const std::size_t w_count = campaign.spec.w.size();
  const bool mono_regime = tau > seg::tau1() && tau < 1.0 - seg::tau1();
  std::printf("\n-- tau = %.3f (%s regime) --\n", tau,
              mono_regime ? "monochromatic, Thm 1"
                          : "almost monochromatic, Thm 2");
  seg::TablePrinter table({"w", "N", "E[M]", "log2 E[M]", "E[M']",
                           "log2 E[M']", "E[C1]", "E[iface]/n^2"});
  std::vector<double> ns, log_m, log_mp;
  for (std::size_t wi = 0; wi < w_count; ++wi) {
    // Grid order: w is an outer axis relative to tau (expand_grid nests
    // n, w, tau, ...), so each w block holds tau_count points.
    const std::size_t point = wi * tau_count + tau_index;
    const int w = campaign.spec.w[wi];
    const int N = (2 * w + 1) * (2 * w + 1);
    // The builtin ties the torus side to the horizon; read it off the
    // expanded point rather than duplicating the formula.
    const int n = campaign.points[point].params.n;
    const double mean_m =
        result.stats_for(point, "mean_mono_region")->mean();
    const double mean_mp =
        result.stats_for(point, "mean_almost_region")->mean();
    // Companion end-state observables (streaming_* columns, read off the
    // final spins): the largest same-type cluster and the interface
    // (unlike-neighbor bond) energy density of the absorbing
    // configuration.
    const double mean_c1 =
        result.stats_for(point, "streaming_largest_cluster")->mean();
    const double mean_iface =
        result.stats_for(point, "streaming_interface_length")->mean();
    table.new_row()
        .add(static_cast<std::int64_t>(w))
        .add(static_cast<std::int64_t>(N))
        .add(mean_m, 1)
        .add(std::log2(mean_m), 3)
        .add(mean_mp, 1)
        .add(std::log2(mean_mp), 3)
        .add(mean_c1, 1)
        .add(mean_iface / (static_cast<double>(n) * n), 4);
    ns.push_back(N);
    log_m.push_back(std::log2(mean_m));
    log_mp.push_back(std::log2(mean_mp));
  }
  table.print();

  const seg::LinearFit fit_m = seg::fit_line(ns, log_m);
  const seg::LinearFit fit_mp = seg::fit_line(ns, log_mp);
  std::printf("exponential-growth fit log2 E[M]  ~ %.5f * N + %.2f   "
              "(r^2 = %.3f)\n",
              fit_m.slope, fit_m.intercept, fit_m.r2);
  std::printf("exponential-growth fit log2 E[M'] ~ %.5f * N + %.2f   "
              "(r^2 = %.3f)\n",
              fit_mp.slope, fit_mp.intercept, fit_mp.r2);
  std::printf("theory envelope (asymptotic): a(tau) = %.5f, b(tau) = %.5f\n",
              seg::a_exponent_envelope(tau), seg::b_exponent_envelope(tau));
  std::printf("shape verdict: slope %s, fit %s\n",
              fit_m.slope > 0 ? "positive (grows with N)" : "NON-POSITIVE",
              fit_m.r2 > 0.8 ? "near-linear in N (exponential E[M])"
                             : "noisy at this scale");
}

}  // namespace

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  const std::size_t trials = args.get_u64("trials", 3);
  const std::uint64_t seed = args.get_u64("seed", 1);
  seg::CampaignOptions options;
  options.threads = args.get_u64("threads", 1);
  options.checkpoint_path = args.get_string("checkpoint", "");
  options.resume = args.get_bool("resume", false);
  const std::string out = args.get_string("out", "");
  if (args.report_errors()) return 1;

  seg::BuiltinCampaign campaign;
  seg::make_builtin_campaign("region_size", {.replicas = trials}, &campaign);

  std::printf("== Theorems 1 & 2: E[M], E[M'] exponential in N ==\n");
  std::printf("(grid side n = max(64, 24w); %zu trials per point; E over "
              "%zu sampled agents per trial)\n",
              trials, campaign.spec.region_samples);

  const seg::CampaignResult result = seg::run_campaign(
      campaign.spec, campaign.points, campaign.metric_names,
      campaign.replica, seed, options);

  for (std::size_t ti = 0; ti < campaign.spec.tau.size(); ++ti) {
    report_tau(campaign, result, ti);
  }
  if (!out.empty()) {
    seg::CsvSink csv(out);
    if (csv.write(campaign.spec, result)) {
      std::printf("\nfull grid written to %s\n", out.c_str());
    }
  }
  return 0;
}
