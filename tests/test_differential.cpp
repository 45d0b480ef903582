// Randomized differential LP harness.
//
// The simplex (Forrest-Tomlin basis, dynamic Devex pricing — its only
// configuration) runs over a seeded stream of random LPs (tests/lp_fuzz.h)
// and over real MC-PERF relaxations. Three references judge every solve,
// none of which shares code with the simplex:
//   - the status each fuzz instance has by construction (Optimal,
//     Infeasible or Unbounded);
//   - the KKT certificate check (test::kkt_check): x primal feasible, y of
//     the right signs, reduced costs dual feasible on infinite sides, and
//     c^T x equal to the weak-duality bound at y;
//   - PDHG, whose certified dual bound must never exceed the optimum.
// Any FT elimination / R-file / Devex weight defect shows up as a status
// mismatch or a rejected certificate here long before it corrupts a paper
// experiment.
//
// The stream is three-tiered: classic shards (randomized shape/bounds/row
// mix), adversarial shards (pricing ties, near-singular column pairs, long
// pivot sequences — see fuzz_adversarial_lp), and a stress shard that
// replays instances with a tiny refactor period and fill factor so pivot
// sequences run well past 2x the refactor period. The KktOracle suite at
// the end shows the certificate check itself rejects bad solutions.
//
// Re-run a failing case locally with WANPLACE_FUZZ_SEED=<base> (the base
// seed is printed in every failure message; per-case seeds are base+offset).
// WANPLACE_FUZZ_COUNT scales every shard (nightly runs use 150 -> 1350+
// instances; the default 60 keeps the default suite over 500).

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <variant>

#include "instance_helpers.h"
#include "lp/model.h"
#include "lp/pdhg.h"
#include "lp/simplex.h"
#include "lp_fuzz.h"
#include "mcperf/achievability.h"
#include "mcperf/builder.h"
#include "mcperf/heuristic_class.h"

namespace wanplace::lp {
namespace {

/// Stress variant: force the update machinery to be the long pole. Every
/// pivot sequence longer than ~8 iterations runs past 2x the refactor
/// period, and the fill guard trips almost immediately.
SimplexOptions stressed() {
  SimplexOptions options;
  options.refactor_period = 4;
  options.ft_fill_factor = 1.05;
  return options;
}

/// Solve one generated instance and judge it against its constructed
/// status, the KKT certificate and PDHG's weak-duality bound.
void check_instance(const test::FuzzLp& fuzz, const std::string& tag,
                    const SimplexOptions& options = {}) {
  const auto sol = solve_simplex(fuzz.model, options);
  switch (fuzz.kind) {
    case test::FuzzKind::Infeasible:
      ASSERT_EQ(sol.status, SolveStatus::Infeasible) << tag;
      return;  // PDHG's infeasibility detection is heuristic; skip it.
    case test::FuzzKind::Unbounded:
      ASSERT_EQ(sol.status, SolveStatus::Unbounded) << tag;
      return;
    case test::FuzzKind::Feasible:
      // Feasible by construction, and bounded: free variables carry zero
      // cost and every other variable is boxed.
      ASSERT_EQ(sol.status, SolveStatus::Optimal) << tag;
      break;
  }
  const auto kkt = test::kkt_check(fuzz.model, sol.x, sol.y);
  EXPECT_TRUE(kkt.certified()) << tag << ": " << kkt.failure;
  // The solver's own certificate may be looser than the check's (clamping
  // a free-variable dual can push it to -inf) but must be a valid bound.
  const double scale = 1 + std::abs(sol.objective);
  EXPECT_LE(sol.dual_bound, sol.objective + 1e-7 * scale) << tag;

  // PDHG: its certificate must never overstate the simplex optimum; when
  // it reports convergence its objective must land within first-order
  // tolerance of the exact optimum.
  PdhgOptions pdhg;
  pdhg.max_iterations = 60000;
  pdhg.tolerance = 1e-6;
  const auto approx = solve_pdhg(fuzz.model, pdhg);
  EXPECT_LE(approx.dual_bound, sol.objective + 1e-6 * scale) << tag;
  // PDHG can stall at a suboptimal stationary point when the model has
  // doubly-unbounded variables (its certificate degrades to -inf there, so
  // the bound stays valid — MC-PERF relaxations never produce free
  // variables). On box-bounded instances a claimed convergence must land
  // on the exact optimum to first-order accuracy.
  if (!fuzz.has_free && approx.status == SolveStatus::Optimal &&
      fuzz.model.max_violation(approx.x) <= 1e-5) {
    EXPECT_NEAR(approx.objective, sol.objective, 1e-2 * scale) << tag;
  }
}

std::string case_tag(const char* family, std::uint64_t base,
                     std::uint64_t offset, const test::FuzzLp& fuzz) {
  return std::string(family) + " base " + std::to_string(base) + " offset " +
         std::to_string(offset) + " (" + std::to_string(fuzz.vars) + "v x " +
         std::to_string(fuzz.rows) + "r)";
}

void check_classic(std::uint64_t base, std::uint64_t offset) {
  const auto fuzz = test::fuzz_lp(base + offset);
  check_instance(fuzz, case_tag("classic", base, offset, fuzz));
}

void check_adversarial(std::uint64_t base, std::uint64_t offset) {
  const auto fuzz = test::fuzz_adversarial_lp(base + offset);
  check_instance(fuzz, case_tag("adversarial", base, offset, fuzz));
}

// Classic shards: 4 x WANPLACE_FUZZ_COUNT (default 60) seeded LPs, sharded
// so ctest can keep the shards separately addressable.
TEST(FuzzDifferential, RandomLpsShard0) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 0; i < n; ++i) check_classic(base, i);
}

TEST(FuzzDifferential, RandomLpsShard1) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = n; i < 2 * n; ++i) check_classic(base, i);
}

TEST(FuzzDifferential, RandomLpsShard2) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 2 * n; i < 3 * n; ++i) check_classic(base, i);
}

TEST(FuzzDifferential, RandomLpsShard3) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 3 * n; i < 4 * n; ++i) check_classic(base, i);
}

// Adversarial shards: pricing-tie / near-singular / long-pivot profiles.
TEST(FuzzAdversarial, TargetedLpsShard0) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 0; i < n; ++i) check_adversarial(base, i);
}

TEST(FuzzAdversarial, TargetedLpsShard1) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = n; i < 2 * n; ++i) check_adversarial(base, i);
}

TEST(FuzzAdversarial, TargetedLpsShard2) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 2 * n; i < 3 * n; ++i) check_adversarial(base, i);
}

TEST(FuzzAdversarial, TargetedLpsShard3) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 3 * n; i < 4 * n; ++i) check_adversarial(base, i);
}

// Warm-start re-optimization shards: solve a base instance cold, perturb a
// seeded subset of its bounds and costs (tests/lp_fuzz.h
// fuzz_warm_perturbed — the planner-phase-2 / per-class-re-solve shape),
// then re-solve the perturbed model three ways: dual simplex warm-started
// from the base basis, cold primal, and PDHG warm-started from the base
// iterates. The warm dual result must match the cold primal to 1e-7 in
// status and objective (the warm path must never change what the solver
// reports, only how fast it gets there), and every PDHG certificate —
// warm or cold — must stay a valid lower bound on the exact optimum to
// the same 1e-7.
void check_warm_pair(std::uint64_t base, std::uint64_t offset) {
  const auto fuzz = test::fuzz_lp(base + offset);
  const auto tag = case_tag("warm", base, offset, fuzz);
  const auto perturbed = test::fuzz_warm_perturbed(fuzz, base + offset);

  const auto seed_sol = solve_simplex(fuzz.model);
  const auto cold = solve_simplex(perturbed.model);

  SimplexOptions dual_opts;
  dual_opts.method = SimplexOptions::Method::Dual;
  if (!seed_sol.basis.empty()) dual_opts.warm_start = &seed_sol.basis;
  const auto warm = solve_simplex(perturbed.model, dual_opts);

  ASSERT_EQ(warm.status, cold.status) << tag;
  if (cold.status != SolveStatus::Optimal) return;
  const double scale = 1 + std::abs(cold.objective);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7 * scale) << tag;
  EXPECT_LE(warm.dual_bound, cold.objective + 1e-7 * scale) << tag;
  EXPECT_LE(perturbed.model.max_violation(warm.x), 1e-6) << tag;

  PdhgOptions pdhg;
  pdhg.max_iterations = 60000;
  pdhg.tolerance = 1e-6;
  const auto pd_cold = solve_pdhg(perturbed.model, pdhg);
  auto pdhg_warm = pdhg;
  pdhg_warm.warm_x = &seed_sol.x;
  pdhg_warm.warm_y = &seed_sol.y;
  const auto pd_warm = solve_pdhg(perturbed.model, pdhg_warm);
  EXPECT_LE(pd_cold.dual_bound, cold.objective + 1e-7 * scale) << tag;
  EXPECT_LE(pd_warm.dual_bound, cold.objective + 1e-7 * scale) << tag;
  if (!fuzz.has_free && pd_warm.status == SolveStatus::Optimal &&
      perturbed.model.max_violation(pd_warm.x) <= 1e-5) {
    EXPECT_NEAR(pd_warm.objective, cold.objective, 1e-2 * scale) << tag;
  }
}

// 4 x WANPLACE_FUZZ_COUNT (default 60) = 240 perturbed-bound pairs.
TEST(FuzzWarm, PerturbedBoundPairsShard0) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 0; i < n; ++i) check_warm_pair(base, i);
}

TEST(FuzzWarm, PerturbedBoundPairsShard1) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = n; i < 2 * n; ++i) check_warm_pair(base, i);
}

TEST(FuzzWarm, PerturbedBoundPairsShard2) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 2 * n; i < 3 * n; ++i) check_warm_pair(base, i);
}

TEST(FuzzWarm, PerturbedBoundPairsShard3) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 3 * n; i < 4 * n; ++i) check_warm_pair(base, i);
}

// Stress shard: replay a seeded mix of classic and adversarial instances
// with refactor_period=4 / ft_fill_factor=1.05. The long-pivot profiles
// routinely take 30+ pivots here, i.e. far past 2x the refactor period, so
// FT spike elimination, the fill guard and the fallback-to-refactorize
// path all fire constantly.
TEST(FuzzStress, TinyRefactorPeriodAcrossBases) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      const auto fuzz = test::fuzz_lp(base + 4 * n + i);
      check_instance(fuzz, case_tag("stress/classic", base, 4 * n + i, fuzz),
                     stressed());
    } else {
      const auto fuzz = test::fuzz_adversarial_lp(base + 4 * n + i);
      check_instance(fuzz,
                     case_tag("stress/adversarial", base, 4 * n + i, fuzz),
                     stressed());
    }
  }
}

// ---------------------------------------------------------------------------
// Real MC-PERF relaxations: the LP family the paper actually solves. These
// are larger and tree-structured — exactly the shape the sparse basis
// targets. Their status reference is the combinatorial achievability
// analysis (mcperf/achievability.h): a class that cannot reach the QoS
// goal (e.g. reactive creation against cold-start demand) makes the
// relaxation infeasible; otherwise the solve must come back Optimal with a
// KKT certificate.

void check_mcperf(const mcperf::Instance& instance,
                  const mcperf::ClassSpec& spec, const std::string& tag) {
  const auto built = mcperf::build_lp(instance, spec);
  const auto sol = solve_simplex(built.model);
  const double tqos = std::get<mcperf::QosGoal>(instance.goal).tqos;
  const bool achievable =
      mcperf::max_achievable_qos(instance, spec).achievable(tqos);
  ASSERT_EQ(sol.status,
            achievable ? SolveStatus::Optimal : SolveStatus::Infeasible)
      << tag;
  if (!achievable) return;
  const auto kkt = test::kkt_check(built.model, sol.x, sol.y);
  EXPECT_TRUE(kkt.certified()) << tag << ": " << kkt.failure;

  const double scale = 1 + std::abs(sol.objective);
  PdhgOptions pdhg;
  pdhg.max_iterations = 150000;
  pdhg.tolerance = 1e-6;
  const auto approx = solve_pdhg(built.model, pdhg);
  EXPECT_LE(approx.dual_bound, sol.objective + 1e-6 * scale) << tag;
  if (approx.status == SolveStatus::Optimal) {
    EXPECT_NEAR(approx.objective, sol.objective, 5e-3 * scale) << tag;
  }
}

TEST(McPerfDifferential, LineInstanceAcrossClasses) {
  const auto instance = test::line_instance(5, 3, 4, 0.9);
  check_mcperf(instance, mcperf::classes::general(), "line/general");
  check_mcperf(instance, mcperf::classes::caching(), "line/caching");
  check_mcperf(instance, mcperf::classes::replica_constrained(),
               "line/replica_constrained");
}

TEST(McPerfDifferential, RandomInstanceAcrossClasses) {
  const auto instance = test::random_instance(42);
  check_mcperf(instance, mcperf::classes::general(), "waxman/general");
  check_mcperf(instance, mcperf::classes::cooperative_caching(),
               "waxman/cooperative_caching");
  check_mcperf(instance, mcperf::classes::storage_constrained(),
               "waxman/storage_constrained");
}

// ---------------------------------------------------------------------------
// The KKT check is only a reference if it rejects what is not optimal. The
// fixture: min -x - 2y over x, y in [0, 3] with x + y <= 4 and x - y >= -1.
// The optimum (1.5, 2.5) makes both rows tight, with duals -1.5 (Le row)
// and 0.5 (Ge row); the all-slack start is feasible and the solver needs
// more than one pivot to reach the optimum.

LpModel kkt_fixture() {
  LpModel model;
  const auto x = model.add_variable(0, 3, -1);
  const auto y = model.add_variable(0, 3, -2);
  model.add_row(RowType::Le, 4, {x, y}, {1, 1});
  model.add_row(RowType::Ge, -1, {x, y}, {1, -1});
  return model;
}

TEST(KktOracle, CertifiesTheOptimum) {
  const auto model = kkt_fixture();
  const auto sol = solve_simplex(model);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  const auto kkt = test::kkt_check(model, sol.x, sol.y);
  EXPECT_TRUE(kkt.certified()) << kkt.failure;
  EXPECT_NEAR(kkt.objective, -6.5, 1e-12);
  EXPECT_LE(kkt.relative_gap, 1e-12);
}

TEST(KktOracle, RejectsPointMovedOffTightRow) {
  const auto model = kkt_fixture();
  const auto sol = solve_simplex(model);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  auto x = sol.x;
  x[0] += 1e-4;  // x + y = 4 is tight: now 4.0001
  const auto kkt = test::kkt_check(model, x, sol.y);
  EXPECT_FALSE(kkt.certified());
  EXPECT_GT(kkt.primal_violation, 1e-5);
}

TEST(KktOracle, RejectsFlippedDualSign) {
  const auto model = kkt_fixture();
  const auto sol = solve_simplex(model);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  ASSERT_GT(sol.y[1], 0.1);  // the Ge row's dual
  auto y = sol.y;
  y[1] = -y[1];
  const auto kkt = test::kkt_check(model, sol.x, y);
  EXPECT_FALSE(kkt.certified());
  EXPECT_GT(kkt.dual_sign_violation, 0.1);
}

TEST(KktOracle, RejectsFeasibleNonOptimalBasicPoint) {
  const auto model = kkt_fixture();
  const auto full = solve_simplex(model);
  ASSERT_EQ(full.status, SolveStatus::Optimal);
  ASSERT_GT(full.iterations, 1u);
  SimplexOptions capped;
  capped.max_iterations = 1;
  const auto sol = solve_simplex(model, capped);
  ASSERT_EQ(sol.status, SolveStatus::IterationLimit);
  const auto kkt = test::kkt_check(model, sol.x, sol.y);
  // A basic point of the feasible region, so only optimality can fail.
  EXPECT_LE(kkt.primal_violation, 1e-12);
  EXPECT_GT(kkt.objective, full.objective + 1);
  EXPECT_FALSE(kkt.certified());
  EXPECT_GT(kkt.relative_gap, 0.1);
}

}  // namespace
}  // namespace wanplace::lp
