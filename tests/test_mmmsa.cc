// Golden tests for tools/mmmsa: every rule against its bad / clean /
// suppressed fixtures under tests/sa_fixtures/, plus the self-check that the
// real tree is finding-free modulo the checked-in baseline. Fixtures that
// judge paths mirror the src/ layout below an extra prefix (EffectivePath
// strips it) so path-gated rules behave exactly as in the real tree. The
// fixtures are analyzed, never compiled, so they can forward-declare freely.
//
// The Mmmlint* suites cover the per-file rules; they keep the names they had
// while those rules lived in a separate linter.

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "tools/mmmsa/sa.h"

namespace mmmsa {
namespace {

std::string Fixture(const std::string& relative) {
  std::string root = MMM_SA_FIXTURES;
  return relative.empty() ? root : root + "/" + relative;
}

std::vector<Finding> AnalyzeFixture(const std::string& relative,
                                    const std::string& only = "") {
  SaOptions options;
  if (!only.empty()) options.only.insert(only);
  std::vector<std::string> io_errors;
  std::vector<Finding> findings =
      AnalyzePaths({Fixture(relative)}, options, &io_errors);
  EXPECT_TRUE(io_errors.empty());
  return findings;
}

std::vector<Finding> Analyze(const std::string& fixture,
                             const std::string& variant,
                             const std::string& only = "") {
  return AnalyzeFixture(fixture + "/" + variant, only);
}

bool HasFinding(const std::vector<Finding>& findings, const std::string& rule,
                const std::string& symbol_fragment) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule &&
           f.symbol.find(symbol_fragment) != std::string::npos;
  });
}

bool HasFindingAt(const std::vector<Finding>& findings, const std::string& rule,
                  const std::string& file_suffix, int line) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.line == line &&
           f.file.size() >= file_suffix.size() &&
           f.file.compare(f.file.size() - file_suffix.size(),
                          file_suffix.size(), file_suffix) == 0;
  });
}

/// Findings whose file is a suppressed or clean twin: always a failure.
std::string FindingsInTwins(const std::vector<Finding>& findings) {
  std::vector<Finding> leaked;
  for (const Finding& f : findings) {
    if (f.file.find("suppressed") != std::string::npos ||
        f.file.find("/clean/") != std::string::npos) {
      leaked.push_back(f);
    }
  }
  return leaked.empty() ? "" : FormatText(leaked);
}

TEST(MmmsaCatalog, AnalysisNamesAreStable) {
  std::vector<std::string> names;
  for (const Analysis& analysis : Catalog()) names.push_back(analysis.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "lock-order", "status-flow", "journal-path",
                       "layer-dag", "store-access", "determinism",
                       "ownership"}));
}

TEST(MmmlintRules, CatalogIsStable) {
  std::set<std::string> rules;
  for (const Analysis& analysis : Catalog()) {
    for (const std::string& rule : analysis.rules) {
      EXPECT_TRUE(rules.insert(rule).second) << "rule listed twice: " << rule;
    }
  }
  EXPECT_EQ(rules.size(), 19u);
  for (const char* rule :
       {"banned-random", "discarded-status", "naked-new", "naked-delete",
        "const-cast",
        "mutex-missing-guard", "raw-std-mutex", "direct-env-write",
        "direct-env-read", "direct-manager-open", "chunk-delete",
        "include-cycle"}) {
    EXPECT_TRUE(rules.count(rule) != 0) << "missing rule: " << rule;
  }
}

// ---------------------------------------------------------------------------
// lock-order: seeded cycle.

TEST(MmmsaLockOrder, SeededCycleFires) {
  std::vector<Finding> findings = Analyze("lock_cycle", "bad", "lock-order");
  EXPECT_TRUE(HasFinding(findings, "lock-cycle", "Tangle::a_"))
      << FormatText(findings);
  EXPECT_TRUE(HasFinding(findings, "lock-cycle", "Tangle::b_"))
      << FormatText(findings);
  // The against-rank direction of the cycle is also a rank inversion.
  EXPECT_TRUE(HasFinding(findings, "rank-inversion", "Tangle::b_->Tangle::a_"))
      << FormatText(findings);
}

TEST(MmmsaLockOrder, CycleCleanVariantIsSilent) {
  EXPECT_TRUE(Analyze("lock_cycle", "clean").empty());
}

TEST(MmmsaLockOrder, CycleSuppressedVariantIsSilent) {
  EXPECT_TRUE(Analyze("lock_cycle", "suppressed").empty());
}

// ---------------------------------------------------------------------------
// lock-order: seeded rank inversion (no cycle).

TEST(MmmsaLockOrder, SeededRankInversionFires) {
  std::vector<Finding> findings =
      Analyze("rank_inversion", "bad", "lock-order");
  EXPECT_TRUE(
      HasFinding(findings, "rank-inversion", "Inverted::high_->Inverted::low_"))
      << FormatText(findings);
  EXPECT_FALSE(HasFinding(findings, "lock-cycle", "Inverted"))
      << FormatText(findings);
}

TEST(MmmsaLockOrder, RankInversionCleanVariantIsSilent) {
  EXPECT_TRUE(Analyze("rank_inversion", "clean").empty());
}

TEST(MmmsaLockOrder, RankInversionSuppressedVariantIsSilent) {
  EXPECT_TRUE(Analyze("rank_inversion", "suppressed").empty());
}

// ---------------------------------------------------------------------------
// status-flow: drop on early return, overwrite, drop at scope exit.

TEST(MmmsaStatusFlow, SeededBugsFire) {
  std::vector<Finding> findings = Analyze("status_flow", "bad", "status-flow");
  EXPECT_TRUE(HasFinding(findings, "status-drop", "DropOnEarlyReturn::st"))
      << FormatText(findings);
  EXPECT_TRUE(
      HasFinding(findings, "status-overwrite", "OverwriteUnchecked::st"))
      << FormatText(findings);
  EXPECT_TRUE(HasFinding(findings, "status-drop", "DropAtScopeExit::st"))
      << FormatText(findings);
  EXPECT_EQ(findings.size(), 3u) << FormatText(findings);
}

TEST(MmmsaStatusFlow, CleanVariantIsSilent) {
  std::vector<Finding> findings = Analyze("status_flow", "clean");
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(MmmsaStatusFlow, SuppressedVariantIsSilent) {
  std::vector<Finding> findings = Analyze("status_flow", "suppressed");
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

// ---------------------------------------------------------------------------
// journal-path: un-journaled delete reachable through a helper.

TEST(MmmsaJournalPath, SeededRawDeleteFires) {
  std::vector<Finding> findings =
      Analyze("journal_path", "bad", "journal-path");
  // The finding lands on the outermost entry point, not the helper.
  EXPECT_TRUE(HasFinding(findings, "unjournaled-delete", "SweepEverything"))
      << FormatText(findings);
  EXPECT_FALSE(HasFinding(findings, "unjournaled-delete", "EvictBlobRaw"))
      << FormatText(findings);
}

TEST(MmmsaJournalPath, JournaledVariantIsSilent) {
  std::vector<Finding> findings = Analyze("journal_path", "clean");
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(MmmsaJournalPath, SuppressedVariantIsSilent) {
  std::vector<Finding> findings = Analyze("journal_path", "suppressed");
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(MmmsaJournalPath, EnvWrapperOutsideStorageIsSilent) {
  // An Env's own DeleteFile override (directly or through another wrapper)
  // implements the primitive; it is not an unjournaled caller of it.
  std::vector<Finding> findings = Analyze("journal_path", "env_wrapper");
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(MmmsaJournalPath, WrapperShapeOutsideAnEnvStillFires) {
  std::vector<Finding> findings =
      Analyze("journal_path", "lookalike", "journal-path");
  EXPECT_TRUE(
      HasFinding(findings, "unjournaled-delete", "BlobCache::DeleteFile"))
      << FormatText(findings);
}

// ---------------------------------------------------------------------------
// layer-dag: upward include.

TEST(MmmsaLayerDag, UpwardIncludeFires) {
  std::vector<Finding> findings = Analyze("layer_dag", "bad", "layer-dag");
  EXPECT_TRUE(HasFinding(findings, "layer-violation", "storage->serve"))
      << FormatText(findings);
  EXPECT_EQ(findings.size(), 1u) << FormatText(findings);
}

TEST(MmmsaLayerDag, DownwardIncludesAreSilent) {
  EXPECT_TRUE(Analyze("layer_dag", "clean").empty());
}

TEST(MmmsaLayerDag, SuppressedVariantIsSilent) {
  EXPECT_TRUE(Analyze("layer_dag", "suppressed").empty());
}

// ---------------------------------------------------------------------------
// Suppressions match the scanned file: the bad and suppressed variants share
// an effective path, and the suppressed one's comment must not waive the
// bad one's finding.

TEST(MmmsaSuppressions, MatchTheScannedFileNotItsEffectivePath) {
  std::vector<Finding> layer = AnalyzeFixture("layer_dag");
  EXPECT_TRUE(HasFindingAt(layer, "layer-violation",
                           "bad/src/storage/up_include.h", 7))
      << FormatText(layer);
  EXPECT_EQ(layer.size(), 1u) << FormatText(layer);

  std::vector<Finding> status = AnalyzeFixture("status_flow");
  EXPECT_EQ(status.size(), 3u) << FormatText(status);
  EXPECT_EQ(FindingsInTwins(status), "");
}

// ---------------------------------------------------------------------------
// Per-file rules: the bad fixture fires at the seeded lines, its suppressed
// twin stays silent.

TEST(MmmlintRules, BannedRandom) {
  std::vector<Finding> findings =
      AnalyzeFixture("banned_random", "banned-random");
  EXPECT_TRUE(HasFindingAt(findings, "banned-random", "bad.cc", 5));
  EXPECT_TRUE(HasFindingAt(findings, "banned-random", "bad.cc", 9));
  EXPECT_EQ(FindingsInTwins(findings), "");
}

TEST(MmmlintRules, DiscardedStatus) {
  std::vector<Finding> findings =
      AnalyzeFixture("discarded_status", "discarded-status");
  EXPECT_TRUE(HasFindingAt(findings, "discarded-status", "bad.cc", 12))
      << "bare-statement Commit() not flagged";
  EXPECT_TRUE(HasFindingAt(findings, "discarded-status", "bad.cc", 13))
      << "(void)-cast DeleteFile() not flagged";
  EXPECT_EQ(FindingsInTwins(findings), "");
}

TEST(MmmlintRules, NakedNew) {
  // The suppressed twin also holds a unique_ptr construction that must not
  // be flagged in the first place.
  std::vector<Finding> findings = AnalyzeFixture("naked_new", "naked-new");
  EXPECT_TRUE(HasFindingAt(findings, "naked-new", "bad.cc", 7));
  EXPECT_EQ(FindingsInTwins(findings), "");
}

TEST(MmmlintRules, NakedDelete) {
  std::vector<Finding> findings =
      AnalyzeFixture("naked_delete", "naked-delete");
  EXPECT_TRUE(HasFindingAt(findings, "naked-delete", "bad.cc", 7));
  EXPECT_EQ(FindingsInTwins(findings), "");
}

TEST(MmmlintRules, ConstCast) {
  std::vector<Finding> findings = AnalyzeFixture("const_cast", "const-cast");
  EXPECT_TRUE(HasFindingAt(findings, "const-cast", "bad.cc", 5))
      << FormatText(findings);
  EXPECT_EQ(findings.size(), 1u) << FormatText(findings);
  EXPECT_EQ(FindingsInTwins(findings), "");
}

TEST(MmmlintRules, RawStdMutex) {
  std::vector<Finding> findings =
      AnalyzeFixture("raw_std_mutex", "raw-std-mutex");
  EXPECT_TRUE(HasFindingAt(findings, "raw-std-mutex", "bad.h", 11));
  EXPECT_EQ(FindingsInTwins(findings), "");
}

TEST(MmmlintRules, MutexMissingGuard) {
  // suppressed.h holds an annotated class (no finding to begin with) and a
  // suppressed one; neither may surface.
  std::vector<Finding> findings =
      AnalyzeFixture("mutex_missing_guard", "mutex-missing-guard");
  EXPECT_TRUE(HasFindingAt(findings, "mutex-missing-guard", "bad.h", 12));
  EXPECT_EQ(FindingsInTwins(findings), "");
}

TEST(MmmlintRules, DirectEnvWrite) {
  std::vector<Finding> findings =
      AnalyzeFixture("direct_env_write", "direct-env-write");
  EXPECT_TRUE(HasFindingAt(findings, "direct-env-write", "bad.cc", 9));
  EXPECT_TRUE(HasFindingAt(findings, "direct-env-write", "bad.cc", 11));
  EXPECT_EQ(FindingsInTwins(findings), "");
}

TEST(MmmlintRules, DirectEnvRead) {
  std::vector<Finding> findings =
      AnalyzeFixture("direct_env_read", "direct-env-read");
  EXPECT_TRUE(HasFindingAt(findings, "direct-env-read", "bad.cc", 9));
  EXPECT_TRUE(HasFindingAt(findings, "direct-env-read", "bad.cc", 11));
  EXPECT_EQ(FindingsInTwins(findings), "");
}

TEST(MmmlintRules, DirectManagerOpen) {
  std::vector<Finding> findings =
      AnalyzeFixture("direct_manager_open", "direct-manager-open");
  EXPECT_TRUE(HasFindingAt(findings, "direct-manager-open", "bad.cc", 13));
  EXPECT_EQ(FindingsInTwins(findings), "");
}

TEST(MmmlintRules, ChunkDelete) {
  std::vector<Finding> findings =
      AnalyzeFixture("chunk_delete", "chunk-delete");
  EXPECT_TRUE(HasFindingAt(findings, "chunk-delete", "bad.cc", 7))
      << "Delete(ChunkBlobName(...)) not flagged";
  EXPECT_TRUE(HasFindingAt(findings, "chunk-delete", "bad.cc", 9))
      << "Delete(kCasChunkPrefix + ...) not flagged";
  EXPECT_TRUE(HasFindingAt(findings, "chunk-delete", "bad.cc", 11))
      << "Delete(\"cas-...\") literal not flagged";
  EXPECT_TRUE(HasFindingAt(findings, "chunk-delete", "bad_pack.cc", 7))
      << "Delete(PackBlobName(...)) not flagged";
  EXPECT_TRUE(HasFindingAt(findings, "chunk-delete", "bad_pack.cc", 9))
      << "DeleteFile(kCasPackPrefix + ...) not flagged";
  EXPECT_TRUE(HasFindingAt(findings, "chunk-delete", "bad_pack.cc", 11))
      << "Delete(\"pack-...\") literal not flagged";
  EXPECT_EQ(FindingsInTwins(findings), "");
}

TEST(MmmlintRules, ChunkDeleteExemptsCasSweeper) {
  // The real sweeper (src/cas/) deletes pack blobs by design.
  SaOptions options;
  options.only = {"chunk-delete"};
  std::vector<std::string> io_errors;
  std::vector<Finding> findings = AnalyzePaths(
      {std::string(MMM_SOURCE_ROOT) + "/src/cas"}, options, &io_errors);
  EXPECT_TRUE(io_errors.empty());
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(MmmlintRules, IncludeCycle) {
  std::vector<Finding> findings = AnalyzeFixture("include_cycle/bad");
  ASSERT_EQ(findings.size(), 1u) << FormatText(findings);
  EXPECT_EQ(findings[0].rule, "include-cycle");
  EXPECT_NE(findings[0].message.find("a.h"), std::string::npos);
  EXPECT_NE(findings[0].message.find("b.h"), std::string::npos);

  EXPECT_TRUE(AnalyzeFixture("include_cycle/suppressed").empty())
      << "suppression on the back-edge include did not take";
}

// ---------------------------------------------------------------------------
// Driver behavior over the whole fixture tree.

TEST(MmmlintDriver, WholeFixtureTreeRespectsSuppressions) {
  // One run over every fixture equals the union of the per-fixture runs,
  // and only bad fixtures contribute.
  std::vector<Finding> whole = AnalyzeFixture("");
  EXPECT_FALSE(whole.empty());
  EXPECT_EQ(FindingsInTwins(whole), "");

  std::vector<Finding> each;
  for (const char* fixture :
       {"banned_random", "chunk_delete", "const_cast", "direct_env_read",
        "direct_env_write",
        "direct_manager_open", "discarded_status", "include_cycle",
        "journal_path", "layer_dag", "lock_cycle", "mutex_missing_guard",
        "naked_delete", "naked_new", "rank_inversion", "raw_std_mutex",
        "status_flow"}) {
    std::vector<Finding> one = AnalyzeFixture(fixture);
    EXPECT_FALSE(one.empty()) << fixture << " has no bad variant that fires";
    each.insert(each.end(), one.begin(), one.end());
  }
  std::sort(each.begin(), each.end());
  EXPECT_EQ(FormatText(whole), FormatText(each));
}

TEST(MmmlintDriver, RuleFilterRestrictsOutput) {
  SaOptions options;
  options.only = {"banned-random"};
  std::vector<Finding> findings =
      AnalyzePaths({std::string(MMM_SA_FIXTURES)}, options, nullptr);
  EXPECT_FALSE(findings.empty());
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "banned-random");

  // An analysis name selects every rule it groups.
  options.only = {"store-access"};
  findings = AnalyzePaths({std::string(MMM_SA_FIXTURES)}, options, nullptr);
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  EXPECT_EQ(rules, (std::set<std::string>{"direct-env-read",
                                          "direct-env-write",
                                          "direct-manager-open"}));
}

TEST(MmmlintDriver, UnreadablePathReportsIoFinding) {
  std::vector<std::string> io_errors;
  std::vector<Finding> findings = AnalyzePaths(
      {Fixture("does_not_exist_anywhere")}, SaOptions{}, &io_errors);
  EXPECT_TRUE(findings.empty());
  ASSERT_EQ(io_errors.size(), 1u);
  EXPECT_NE(io_errors[0].find("does_not_exist_anywhere"), std::string::npos);
}

TEST(MmmlintDriver, FormattersRenderEveryFinding) {
  std::vector<Finding> findings = AnalyzeFixture("banned_random");
  ASSERT_FALSE(findings.empty());
  std::string text = FormatText(findings);
  EXPECT_NE(text.find("[determinism/banned-random]"), std::string::npos);
  // One line per finding plus the summary tail.
  EXPECT_EQ(static_cast<size_t>(std::count(text.begin(), text.end(), '\n')),
            findings.size() + 1);
  std::string sarif = FormatSarif(findings);
  EXPECT_EQ(static_cast<size_t>(std::count(sarif.begin(), sarif.end(), '{') -
                                std::count(sarif.begin(), sarif.end(), '}')),
            0u);
}

TEST(MmmlintDriver, ListSuppressionsReportsFileRuleAndReason) {
  std::vector<SuppressionNote> notes =
      ListSuppressions({Fixture("direct_manager_open")}, nullptr);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].file.find("suppressed.cc"), std::string::npos);
  EXPECT_EQ(notes[0].line, 8);
  EXPECT_EQ(notes[0].tag, "direct-manager-open");
  EXPECT_EQ(notes[0].reason, "fixture models a sanctioned standalone tool");
}

TEST(MmmlintDriver, ListSuppressionsIgnoresSyntaxDocumentation) {
  // The analyzer's own sources describe the `MMMSA(<rule|analysis|*>): ...`
  // syntax in comments; none of that is debt.
  std::vector<std::string> io_errors;
  std::vector<SuppressionNote> notes = ListSuppressions(
      {std::string(MMM_SOURCE_ROOT) + "/tools/mmmsa"}, &io_errors);
  EXPECT_TRUE(io_errors.empty());
  EXPECT_TRUE(notes.empty()) << notes.size() << " notes, first at "
                             << (notes.empty() ? "" : notes[0].file);
}

// ---------------------------------------------------------------------------
// Formatters and the baseline ratchet.

TEST(MmmsaFormat, TextAndSarifCarryTheFinding) {
  std::vector<Finding> findings = Analyze("layer_dag", "bad");
  ASSERT_FALSE(findings.empty());
  std::string text = FormatText(findings);
  EXPECT_NE(text.find("layer-violation"), std::string::npos) << text;
  EXPECT_NE(text.find("src/storage/up_include.h"), std::string::npos) << text;
  std::string sarif = FormatSarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"layer-violation\""), std::string::npos);
  EXPECT_NE(sarif.find("src/storage/up_include.h"), std::string::npos);
}

TEST(MmmsaFormat, EmptySarifIsWellFormedEnough) {
  std::string sarif = FormatSarif({});
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos) << sarif;
}

TEST(MmmsaBaseline, RoundTripFiltersBaselinedFindings) {
  std::vector<Finding> findings = Analyze("lock_cycle", "bad");
  ASSERT_FALSE(findings.empty());
  std::string serialized = FormatBaseline(findings);
  // Keys use the effective path, so they hold wherever the tree is scanned.
  EXPECT_NE(serialized.find("|src/lc/locks.h|"), std::string::npos)
      << serialized;
  std::string path = ::testing::TempDir() + "/mmmsa_baseline_roundtrip.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fwrite(serialized.data(), 1, serialized.size(), f);
    fclose(f);
  }
  std::string error;
  ASSERT_TRUE(ApplyBaseline(path, &findings, &error)) << error;
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(MmmsaBaseline, MissingBaselineFileIsAnError) {
  std::vector<Finding> findings;
  std::string error;
  EXPECT_FALSE(
      ApplyBaseline("/nonexistent/mmmsa_baseline.txt", &findings, &error));
  EXPECT_FALSE(error.empty());
}

TEST(MmmsaEffectivePath, StripsFixturePrefixes) {
  EXPECT_EQ(EffectivePath("tests/sa_fixtures/lock_cycle/bad/src/lc/locks.h"),
            "src/lc/locks.h");
  EXPECT_EQ(EffectivePath("/root/repo/src/cas/cas_store.cc"),
            "src/cas/cas_store.cc");
  EXPECT_EQ(EffectivePath("tools/mmmsa/analysis.cc"), "tools/mmmsa/analysis.cc");
  EXPECT_EQ(EffectivePath("no/marker/here.cc"), "no/marker/here.cc");
}

// ---------------------------------------------------------------------------
// Self-check: the real tree is finding-free modulo the checked-in baseline,
// over the same roots and rules as the CI job. A regression here means new
// code broke an invariant (or the analyzer grew a false positive — both
// block the merge on purpose).

std::vector<std::string> RealTree() {
  std::string root = MMM_SOURCE_ROOT;
  return {root + "/src", root + "/tools", root + "/bench"};
}

TEST(MmmsaSelfCheck, RealTreeIsCleanModuloBaseline) {
  std::vector<std::string> io_errors;
  std::vector<Finding> findings =
      AnalyzePaths(RealTree(), SaOptions{}, &io_errors);
  EXPECT_TRUE(io_errors.empty());
  std::string error;
  ASSERT_TRUE(ApplyBaseline(
      std::string(MMM_SOURCE_ROOT) + "/tools/mmmsa/baseline.txt", &findings,
      &error))
      << error;
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

TEST(MmmsaSelfCheck, TreeSuppressionsAreTheKnownFour) {
  // Each waiver in the tree is reviewed debt; a new one belongs in this
  // list only with a reason that holds up.
  std::vector<std::tuple<std::string, int, std::string>> got;
  for (const SuppressionNote& note : ListSuppressions(RealTree(), nullptr)) {
    EXPECT_FALSE(note.reason.empty()) << note.file << ":" << note.line;
    got.emplace_back(EffectivePath(note.file), note.line, note.tag);
  }
  std::vector<std::tuple<std::string, int, std::string>> want = {
      {"bench/suite/mmmbench.cc", 128, "banned-random"},
      {"src/fleet/simulator.cc", 98, "direct-manager-open"},
      {"src/workload/experiment.cc", 45, "direct-manager-open"},
      {"tools/mmmctl.cpp", 684, "direct-manager-open"},
  };
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace mmmsa
