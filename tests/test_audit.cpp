#include "core/audit.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "ca/pndca.hpp"
#include "core/simulation.hpp"
#include "dmc/frm.hpp"
#include "dmc/vssm.hpp"
#include "models/zgb.hpp"
#include "partition/coloring.hpp"

namespace casurf {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  AuditTest() : zgb_(models::make_zgb()) {}

  Configuration config(std::int32_t size = 20) const {
    return Configuration(Lattice(size, size), zgb_.model.species().size(), zgb_.vacant);
  }

  models::ZgbModel zgb_;
};

TEST_F(AuditTest, CleanSimulatorsPassUnderEveryAlgorithm) {
  for (const Algorithm alg :
       {Algorithm::kRsm, Algorithm::kVssm, Algorithm::kFrm, Algorithm::kNdca,
        Algorithm::kPndca, Algorithm::kLPndca, Algorithm::kTPndca,
        Algorithm::kParallelPndca}) {
    SimulationOptions opt;
    opt.algorithm = alg;
    opt.seed = 3;
    opt.threads = 2;
    auto sim = make_simulator(zgb_.model, config(), opt);
    sim->advance_to(2.0);
    StateAuditor auditor(AuditPolicy::kAbort);
    const AuditReport report = auditor.run(*sim);
    EXPECT_TRUE(report.clean()) << sim->name() << ":\n" << report.to_string();
  }
}

TEST_F(AuditTest, DetectsCorruptedConfigurationCounts) {
  VssmSimulator sim(zgb_.model, config(), 3);
  sim.advance_to(1.0);
  sim.configuration().corrupt_count_for_test(zgb_.co, +2);

  StateAuditor abort_auditor(AuditPolicy::kAbort);
  try {
    abort_auditor.run(sim);
    FAIL() << "corrupted counts passed the audit";
  } catch (const AuditError& e) {
    EXPECT_FALSE(e.report().clean());
    EXPECT_EQ(e.report().issues.front().component, "config-counts");
  }
  EXPECT_EQ(abort_auditor.audits_failed(), 1u);

  // kRepair recounts and the simulator keeps running.
  StateAuditor repair_auditor(AuditPolicy::kRepair);
  const AuditReport repaired = repair_auditor.run(sim);
  EXPECT_TRUE(repaired.repaired);
  EXPECT_TRUE(StateAuditor(AuditPolicy::kAbort).run(sim).clean());
  sim.advance_to(2.0);
}

TEST_F(AuditTest, DetectsAndRepairsVssmEnabledSetDrift) {
  VssmSimulator sim(zgb_.model, config(), 3);
  sim.advance_to(1.0);
  // Inject a phantom enabled site: CO adsorption on a site the recompute
  // will disagree about once its occupancy says otherwise.
  EnabledSet& set = sim.mutable_enabled_for_test(0);
  const SiteIndex victim = set.empty() ? 0 : set.items().front();
  if (set.contains(victim)) set.erase(victim);
  else set.insert(victim);

  try {
    StateAuditor(AuditPolicy::kAbort).run(sim);
    FAIL() << "corrupted enabled set passed the audit";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.report().issues.front().component, "vssm-enabled");
    EXPECT_NE(e.report().to_string().find("vssm-enabled"), std::string::npos);
  }

  const AuditReport repaired = StateAuditor(AuditPolicy::kRepair).run(sim);
  EXPECT_TRUE(repaired.repaired);
  EXPECT_TRUE(StateAuditor(AuditPolicy::kAbort).run(sim).clean());
  sim.advance_to(2.0);  // trajectory continues from the repaired state
}

TEST_F(AuditTest, DetectsAndRepairsFrmBookkeepingDrift) {
  FrmSimulator sim(zgb_.model, config(), 3);
  sim.advance_to(1.0);
  sim.corrupt_pair_for_test(0, 5);

  try {
    StateAuditor(AuditPolicy::kAbort).run(sim);
    FAIL() << "corrupted FRM pair index passed the audit";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.report().issues.front().component, "frm-queue");
  }

  EXPECT_TRUE(StateAuditor(AuditPolicy::kRepair).run(sim).repaired);
  EXPECT_TRUE(StateAuditor(AuditPolicy::kAbort).run(sim).clean());
  sim.advance_to(2.0);
}

TEST_F(AuditTest, DetectsAndRepairsRateCacheCorruption) {
  const Configuration cfg = config();
  PndcaSimulator sim(zgb_.model, config(),
                     {make_partition(cfg.lattice(), zgb_.model)}, 3,
                     ChunkPolicy::kRateWeighted);
  sim.advance_to(1.0);
  ASSERT_NE(sim.mutable_rate_cache_for_test(), nullptr);
  sim.mutable_rate_cache_for_test()->corrupt_count_for_test(0, 0, 0, +1);

  try {
    StateAuditor(AuditPolicy::kAbort).run(sim);
    FAIL() << "corrupted rate cache passed the audit";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.report().issues.front().component, "rate-cache");
  }

  EXPECT_TRUE(StateAuditor(AuditPolicy::kRepair).run(sim).repaired);
  EXPECT_TRUE(StateAuditor(AuditPolicy::kAbort).run(sim).clean());
  sim.advance_to(2.0);
}

TEST_F(AuditTest, AuditorCountsRunsAndFailures) {
  VssmSimulator sim(zgb_.model, config(), 3);
  StateAuditor auditor(AuditPolicy::kRepair);
  auditor.run(sim);
  sim.configuration().corrupt_count_for_test(zgb_.o, -1);
  auditor.run(sim);
  auditor.run(sim);
  EXPECT_EQ(auditor.audits_run(), 3u);
  EXPECT_EQ(auditor.audits_failed(), 1u);
}

TEST_F(AuditTest, ReportRendersOneLinePerIssue) {
  AuditReport report;
  report.issues.push_back({"config-counts", "species 1: stored 5, actual 3"});
  report.issues.push_back({"rate-cache", "slot 0 chunk 2 type 1: stored 9, actual 8"});
  const std::string text = report.to_string();
  EXPECT_NE(text.find("config-counts"), std::string::npos);
  EXPECT_NE(text.find("rate-cache"), std::string::npos);
  EXPECT_NE(text.find("stored 5, actual 3"), std::string::npos);
}

}  // namespace
}  // namespace casurf
