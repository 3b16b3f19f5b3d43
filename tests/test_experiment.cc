#include "workload/experiment.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace mmm {
namespace {

using testing::TempDir;

TEST(MedianTest, OddEvenEmpty) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3.0}), 3.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

class ExperimentTest : public ::testing::Test {
 protected:
  ExperimentConfig SmallConfig(const TempDir& temp) {
    ExperimentConfig config;
    config.scenario = ScenarioConfig::Battery(30);
    config.scenario.samples_per_dataset = 48;
    config.u3_iterations = 2;
    config.runs = 1;
    config.profile = SetupProfile::Server();
    config.work_dir = temp.path() + "/exp";
    config.provenance_recover = {1, 16};
    return config;
  }
};

TEST_F(ExperimentTest, ProducesExpectedRowsAndOrdering) {
  TempDir temp("experiment");
  ExperimentRunner runner(SmallConfig(temp));
  ASSERT_OK_AND_ASSIGN(std::vector<UseCaseResult> results, runner.Run());
  ASSERT_EQ(results.size(), 3u);  // U1, U3-1, U3-2
  EXPECT_EQ(results[0].use_case, "U1");
  EXPECT_EQ(results[2].use_case, "U3-2");

  for (const UseCaseResult& row : results) {
    ASSERT_EQ(row.metrics.size(), 4u) << row.use_case;
    for (const auto& [type, metrics] : row.metrics) {
      EXPECT_FALSE(metrics.set_id.empty());
      EXPECT_GT(metrics.storage_bytes, 0u);
      EXPECT_GT(metrics.tts_seconds, 0.0);
      EXPECT_GT(metrics.ttr_seconds, 0.0);
    }
  }

  // Figure 3 orderings at U1: Baseline/Provenance < Update < MMlib-base.
  const auto& u1 = results[0].metrics;
  EXPECT_LT(u1.at(ApproachType::kBaseline).storage_bytes,
            u1.at(ApproachType::kMMlibBase).storage_bytes);
  // Provenance's U1 save uses Baseline's logic; sizes match up to a few
  // metadata-document bytes (the approach-name string differs).
  EXPECT_NEAR(
      static_cast<double>(u1.at(ApproachType::kBaseline).storage_bytes),
      static_cast<double>(u1.at(ApproachType::kProvenance).storage_bytes), 64);
  EXPECT_GT(u1.at(ApproachType::kUpdate).storage_bytes,
            u1.at(ApproachType::kBaseline).storage_bytes);

  // Figure 3 orderings at U3: Provenance << Update << Baseline == U1 value.
  const auto& u3 = results[1].metrics;
  EXPECT_LT(u3.at(ApproachType::kProvenance).storage_bytes,
            u3.at(ApproachType::kUpdate).storage_bytes);
  EXPECT_LT(u3.at(ApproachType::kUpdate).storage_bytes,
            u3.at(ApproachType::kBaseline).storage_bytes);
  // Baseline's storage is flat across use cases (up to the lineage field in
  // the metadata document).
  EXPECT_NEAR(static_cast<double>(u3.at(ApproachType::kBaseline).storage_bytes),
              static_cast<double>(u1.at(ApproachType::kBaseline).storage_bytes),
              64);

  // O3: MMlib-base performs ~3n store writes, Baseline a constant few.
  EXPECT_GT(u1.at(ApproachType::kMMlibBase).file_store_writes +
                u1.at(ApproachType::kMMlibBase).doc_store_writes,
            80u);
  EXPECT_LE(u1.at(ApproachType::kBaseline).file_store_writes +
                u1.at(ApproachType::kBaseline).doc_store_writes,
            4u);
}

TEST_F(ExperimentTest, TtrStaircaseForRecursiveApproaches) {
  TempDir temp("experiment-ttr");
  ExperimentConfig config = SmallConfig(temp);
  config.u3_iterations = 3;
  ExperimentRunner runner(config);
  ASSERT_OK_AND_ASSIGN(std::vector<UseCaseResult> results, runner.Run());
  // Update's TTR grows along the chain (staircase, Figure 5); use the
  // modeled store time, which is noise-free.
  double prev = results[0].metrics.at(ApproachType::kUpdate).ttr_modeled_seconds;
  for (size_t i = 1; i < results.size(); ++i) {
    double current =
        results[i].metrics.at(ApproachType::kUpdate).ttr_modeled_seconds;
    EXPECT_GT(current, prev) << results[i].use_case;
    prev = current;
  }
  // Baseline's modeled TTR is flat across use cases.
  double u1 = results[0].metrics.at(ApproachType::kBaseline).ttr_modeled_seconds;
  double u3_last =
      results.back().metrics.at(ApproachType::kBaseline).ttr_modeled_seconds;
  EXPECT_NEAR(u3_last / u1, 1.0, 0.05);
}

TEST_F(ExperimentTest, SubsetOfApproachesRuns) {
  TempDir temp("experiment-subset");
  ExperimentConfig config = SmallConfig(temp);
  config.approaches = {ApproachType::kBaseline, ApproachType::kUpdate};
  config.u3_iterations = 1;
  ExperimentRunner runner(config);
  ASSERT_OK_AND_ASSIGN(std::vector<UseCaseResult> results, runner.Run());
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].metrics.size(), 2u);
  EXPECT_FALSE(results[0].metrics.contains(ApproachType::kProvenance));
}

TEST_F(ExperimentTest, UncappedProvenanceRecoveriesAreCheckedAgainstTheSavedSets) {
  // Run() compares every uncapped recovery with the set it saved and fails
  // with Corruption on a difference, so success means each replay was
  // bit-exact.
  TempDir temp("experiment-exact");
  ExperimentConfig config = SmallConfig(temp);
  config.approaches = {ApproachType::kProvenance};
  config.provenance_recover = {};
  config.scenario.train_lanes = 4;
  ExperimentRunner runner(config);
  ASSERT_OK_AND_ASSIGN(std::vector<UseCaseResult> results, runner.Run());
  EXPECT_EQ(results.size(), 3u);
}

}  // namespace
}  // namespace mmm
