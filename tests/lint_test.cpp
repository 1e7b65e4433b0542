// Tests for girg-lint: lexer behavior, each rule against its violating and
// clean fixture (tests/lint_fixtures/), and LINT-ALLOW annotation hygiene.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"

namespace {

using girglint::Diagnostic;
using girglint::FileKind;
using girglint::SourceFile;

std::string read_fixture(const std::string& name) {
    const std::string path = std::string(LINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Lints `content` as if it lived at `display_path`; returns the rule ids hit.
std::vector<Diagnostic> lint(const std::string& display_path, FileKind kind,
                             const std::string& content) {
    const SourceFile file = girglint::lex_file(display_path, kind, content);
    std::vector<Diagnostic> out;
    girglint::run_rules(file, out);
    return out;
}

std::vector<Diagnostic> lint_fixture(const std::string& fixture,
                                     const std::string& display_path,
                                     FileKind kind = FileKind::kSrc) {
    return lint(display_path, kind, read_fixture(fixture));
}

std::set<std::string> rules_hit(const std::vector<Diagnostic>& diagnostics) {
    std::set<std::string> rules;
    for (const Diagnostic& d : diagnostics) rules.insert(d.rule);
    return rules;
}

int count_rule(const std::vector<Diagnostic>& diagnostics, const std::string& rule) {
    return static_cast<int>(std::count_if(
        diagnostics.begin(), diagnostics.end(),
        [&](const Diagnostic& d) { return d.rule == rule; }));
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LintLexer, StripsCommentsAndStrings) {
    const SourceFile f = girglint::lex_file(
        "src/a.cpp", FileKind::kSrc,
        "// rand() in a comment\n"
        "const char* s = \"rand()\";\n"
        "/* std::random_device */ int x = 0;\n");
    for (const girglint::Token& t : f.tokens) {
        EXPECT_NE(t.text, "rand");
        EXPECT_NE(t.text, "random_device");
    }
    ASSERT_EQ(f.comments.size(), 2u);
    EXPECT_EQ(f.comments[0].line, 1);
    EXPECT_EQ(f.comments[1].line, 3);
}

TEST(LintLexer, RawStringsDoNotLeakTokens) {
    const SourceFile f = girglint::lex_file(
        "src/a.cpp", FileKind::kSrc,
        "const char* s = R\"(time(nullptr) \" // not a comment)\";\nint after = 1;\n");
    EXPECT_TRUE(std::none_of(f.tokens.begin(), f.tokens.end(),
                             [](const girglint::Token& t) { return t.text == "time"; }));
    // The token after the raw string still carries the right line.
    const auto it = std::find_if(f.tokens.begin(), f.tokens.end(),
                                 [](const girglint::Token& t) { return t.text == "after"; });
    ASSERT_NE(it, f.tokens.end());
    EXPECT_EQ(it->line, 2);
}

TEST(LintLexer, RecordsIncludesAndPragmaOnce) {
    const SourceFile f = girglint::lex_file(
        "src/a.h", FileKind::kSrc,
        "#pragma once\n#include <vector>\n#include \"core/check.h\"\n");
    EXPECT_TRUE(f.has_pragma_once);
    ASSERT_EQ(f.includes.size(), 2u);
    EXPECT_EQ(f.includes[0].header, "vector");
    EXPECT_TRUE(f.includes[0].angled);
    EXPECT_EQ(f.includes[1].header, "core/check.h");
    EXPECT_FALSE(f.includes[1].angled);
}

TEST(LintLexer, ScopeResolutionIsOneToken) {
    const SourceFile f =
        girglint::lex_file("src/a.cpp", FileKind::kSrc, "int x = std::pow(2, 3);\n");
    const auto it = std::find_if(f.tokens.begin(), f.tokens.end(),
                                 [](const girglint::Token& t) { return t.text == "::"; });
    ASSERT_NE(it, f.tokens.end());
    EXPECT_EQ(it->kind, girglint::Token::Kind::kPunct);
}

TEST(LintLexer, ParsesAllowAnnotations) {
    const SourceFile f = girglint::lex_file(
        "src/a.cpp", FileKind::kSrc,
        "// LINT-ALLOW(relaxed): pure counter\nint x = 0;\n// LINT-ALLOW broken\n");
    ASSERT_EQ(f.allows.size(), 2u);
    EXPECT_EQ(f.allows[0].rule, "relaxed");
    EXPECT_EQ(f.allows[0].reason, "pure counter");
    EXPECT_FALSE(f.allows[0].malformed);
    EXPECT_TRUE(f.allows[1].malformed);
}

// ---------------------------------------------------------------------------
// Rules, one fixture pair each
// ---------------------------------------------------------------------------

TEST(LintRules, NondeterminismBad) {
    const auto diagnostics =
        lint_fixture("nondeterminism_bad.cpp", "src/core/fixture.cpp");
    EXPECT_GE(count_rule(diagnostics, "nondeterminism"), 5);
}

TEST(LintRules, NondeterminismOk) {
    const auto diagnostics = lint_fixture("nondeterminism_ok.cpp", "src/core/fixture.cpp");
    EXPECT_EQ(count_rule(diagnostics, "nondeterminism"), 0) << diagnostics[0].message;
}

TEST(LintRules, BenchMayReadClocks) {
    const std::string timing =
        "#include <chrono>\nauto t0() { return std::chrono::steady_clock::now(); }\n";
    EXPECT_EQ(count_rule(lint("bench/bench_x.cpp", FileKind::kBench, timing),
                         "nondeterminism"),
              0);
    EXPECT_EQ(count_rule(lint("src/core/x.cpp", FileKind::kSrc, timing), "nondeterminism"),
              1);
}

TEST(LintRules, UnorderedIterBad) {
    const auto diagnostics =
        lint_fixture("unordered_iter_bad.cpp", "src/core/fixture.cpp");
    EXPECT_EQ(count_rule(diagnostics, "unordered-iter"), 2);
}

TEST(LintRules, UnorderedIterOk) {
    const auto diagnostics = lint_fixture("unordered_iter_ok.cpp", "src/core/fixture.cpp");
    EXPECT_EQ(count_rule(diagnostics, "unordered-iter"), 0);
}

TEST(LintRules, PowBadOnHotPath) {
    const auto diagnostics = lint_fixture("pow_bad.cpp", "src/core/phi_dfs.cpp");
    EXPECT_EQ(count_rule(diagnostics, "pow"), 1);
    // The same file outside the hot list is not flagged.
    EXPECT_EQ(count_rule(lint("src/experiments/cold.cpp", FileKind::kSrc,
                              read_fixture("pow_bad.cpp")),
                         "pow"),
              0);
}

TEST(LintRules, PowOkOnHotPath) {
    const auto diagnostics = lint_fixture("pow_ok.cpp", "src/core/phi_dfs.cpp");
    EXPECT_EQ(count_rule(diagnostics, "pow"), 0);
}

TEST(LintRules, AtomicAlignmentBad) {
    const auto diagnostics =
        lint_fixture("atomic_alignment_bad.cpp", "src/core/fixture.cpp");
    EXPECT_EQ(count_rule(diagnostics, "atomic-alignment"), 1);
    EXPECT_EQ(count_rule(diagnostics, "relaxed"), 1);
}

TEST(LintRules, AtomicAlignmentOk) {
    const auto diagnostics =
        lint_fixture("atomic_alignment_ok.cpp", "src/core/fixture.cpp");
    EXPECT_EQ(count_rule(diagnostics, "atomic-alignment"), 0);
    EXPECT_EQ(count_rule(diagnostics, "relaxed"), 0);
}

TEST(LintRules, IncludeBadHeader) {
    const auto diagnostics = lint_fixture("include_bad.h", "src/core/fixture.h");
    const auto rules = rules_hit(diagnostics);
    EXPECT_TRUE(rules.count("include"));
    // pragma once + using-namespace + missing <vector>.
    EXPECT_EQ(count_rule(diagnostics, "include"), 3);
}

TEST(LintRules, IncludeOkHeader) {
    const auto diagnostics = lint_fixture("include_ok.h", "src/core/fixture.h");
    EXPECT_EQ(count_rule(diagnostics, "include"), 0);
}

TEST(LintRules, FormatBad) {
    const auto diagnostics = lint_fixture("format_bad.cpp", "src/core/fixture.cpp");
    // trailing whitespace, tab, and missing final newline.
    EXPECT_EQ(count_rule(diagnostics, "format"), 3);
}

TEST(LintRules, FormatOk) {
    const auto diagnostics = lint_fixture("format_ok.cpp", "src/core/fixture.cpp");
    EXPECT_EQ(count_rule(diagnostics, "format"), 0);
}

// R6 fixtures lint under their *real* absolute paths: the rule resolves the
// named test against the repo root derived from the display path, so a
// synthetic path would point the existence probe at the wrong directory.

TEST(LintRules, SimdEquivBadStaleName) {
    const std::string path = std::string(LINT_FIXTURE_DIR) + "/phi_simd_bad.cpp";
    const auto diagnostics = lint_fixture("phi_simd_bad.cpp", path);
    ASSERT_EQ(count_rule(diagnostics, "simd-equiv"), 1);
    const auto it = std::find_if(diagnostics.begin(), diagnostics.end(),
                                 [](const Diagnostic& d) { return d.rule == "simd-equiv"; });
    EXPECT_NE(it->message.find("does not exist"), std::string::npos);
}

TEST(LintRules, SimdEquivOk) {
    const std::string path = std::string(LINT_FIXTURE_DIR) + "/phi_simd_ok.cpp";
    EXPECT_EQ(count_rule(lint_fixture("phi_simd_ok.cpp", path), "simd-equiv"), 0);
}

TEST(LintRules, SimdEquivMissingMarker) {
    const auto diagnostics = lint("src/girg/x_simd.cpp", FileKind::kSrc, "int x = 0;\n");
    EXPECT_EQ(count_rule(diagnostics, "simd-equiv"), 1);
}

TEST(LintRules, SimdEquivIgnoresNonSimdFiles) {
    EXPECT_EQ(count_rule(lint("src/girg/phi_records.cpp", FileKind::kSrc, "int x = 0;\n"),
                         "simd-equiv"),
              0);
}

TEST(LintRules, LayoutPinBad) {
    const auto diagnostics =
        lint_fixture("layout_pin_bad.cpp", "src/graph/packed_graph.h");
    // RecordHeader misses both pins, RecordEntry misses the sizeof pin;
    // the unmarked ScratchTotals demands nothing.
    EXPECT_EQ(count_rule(diagnostics, "layout-pin"), 3);
}

TEST(LintRules, LayoutPinOk) {
    EXPECT_EQ(count_rule(lint_fixture("layout_pin_ok.cpp", "src/graph/packed_graph.h"),
                         "layout-pin"),
              0);
}

TEST(LintRules, LayoutPinIgnoresNonFormatFiles) {
    // The same violating content is fine outside the designated format
    // files — the rule is a contract on the on-disk layout headers, not a
    // global style mandate.
    EXPECT_EQ(count_rule(lint_fixture("layout_pin_bad.cpp", "src/core/other.h"),
                         "layout-pin"),
              0);
}

// ---------------------------------------------------------------------------
// LINT-ALLOW hygiene
// ---------------------------------------------------------------------------

TEST(LintAllows, SuppressionWindowIsThreeLines) {
    const std::string near =
        "// LINT-ALLOW(relaxed): counter\n"
        "auto x =\n"
        "    std::memory_order_relaxed;\n";
    EXPECT_EQ(count_rule(lint("src/a.cpp", FileKind::kSrc, near), "relaxed"), 0);

    const std::string far =
        "// LINT-ALLOW(relaxed): counter\n"
        "int a = 0;\n"
        "int b = 0;\n"
        "auto x = std::memory_order_relaxed;\n";
    const auto diagnostics = lint("src/a.cpp", FileKind::kSrc, far);
    EXPECT_EQ(count_rule(diagnostics, "relaxed"), 1);
    // The allow suppressed nothing and is reported stale.
    EXPECT_EQ(count_rule(diagnostics, "allow-syntax"), 1);
}

TEST(LintAllows, ReasonIsMandatory) {
    const std::string no_reason =
        "// LINT-ALLOW(relaxed):\nauto x = std::memory_order_relaxed;\n";
    const auto diagnostics = lint("src/a.cpp", FileKind::kSrc, no_reason);
    EXPECT_EQ(count_rule(diagnostics, "relaxed"), 1);  // not suppressed
    EXPECT_EQ(count_rule(diagnostics, "allow-syntax"), 1);
}

TEST(LintAllows, UnknownRuleIsReported) {
    const auto diagnostics = lint("src/a.cpp", FileKind::kSrc,
                                  "// LINT-ALLOW(no-such-rule): whatever\nint x = 0;\n");
    ASSERT_EQ(count_rule(diagnostics, "allow-syntax"), 1);
    EXPECT_NE(diagnostics[0].message.find("unknown rule"), std::string::npos);
}

TEST(LintAllows, WrongRuleDoesNotSuppress) {
    const std::string wrong =
        "// LINT-ALLOW(pow): misfiled\nauto x = std::memory_order_relaxed;\n";
    const auto diagnostics = lint("src/a.cpp", FileKind::kSrc, wrong);
    EXPECT_EQ(count_rule(diagnostics, "relaxed"), 1);
}

// ---------------------------------------------------------------------------
// --only filtering
// ---------------------------------------------------------------------------

std::vector<Diagnostic> lint_only(const std::vector<std::string>& only,
                                  const std::string& display_path, FileKind kind,
                                  const std::string& content) {
    const SourceFile file = girglint::lex_file(display_path, kind, content);
    std::vector<Diagnostic> out;
    girglint::run_rules(file, only, out);
    return out;
}

TEST(LintOnly, RunsOnlySelectedRules) {
    // Violates nondeterminism (random_device), relaxed, and format (tab).
    const std::string content =
        "auto r = std::random_device{};\n"
        "auto x = std::memory_order_relaxed;\n"
        "\tint y = 0;\n";
    const auto all = lint("src/a.cpp", FileKind::kSrc, content);
    EXPECT_EQ(count_rule(all, "nondeterminism"), 1);
    EXPECT_EQ(count_rule(all, "relaxed"), 1);
    EXPECT_GE(count_rule(all, "format"), 1);

    const auto filtered = lint_only({"nondeterminism"}, "tools/a.cpp",
                                    FileKind::kSrc, content);
    EXPECT_EQ(count_rule(filtered, "nondeterminism"), 1);
    EXPECT_EQ(count_rule(filtered, "relaxed"), 0);
    EXPECT_EQ(count_rule(filtered, "format"), 0);
}

TEST(LintOnly, AllowsStillSuppressSelectedRule) {
    const std::string content =
        "// LINT-ALLOW(nondeterminism): fixture\n"
        "auto r = std::random_device{};\n";
    const auto filtered =
        lint_only({"nondeterminism"}, "tools/a.cpp", FileKind::kSrc, content);
    EXPECT_EQ(count_rule(filtered, "nondeterminism"), 0);
}

TEST(LintOnly, FilteredModeSkipsAllowHygiene) {
    // An allow for a rule that did not run must not be flagged stale, and
    // unknown-rule / missing-reason hygiene is deferred to full runs.
    const std::string content =
        "// LINT-ALLOW(pow): setup-time exponent\n"
        "int x = 0;\n";
    EXPECT_EQ(count_rule(lint("src/a.cpp", FileKind::kSrc, content), "allow-syntax"), 1);
    const auto filtered =
        lint_only({"nondeterminism"}, "tools/a.cpp", FileKind::kSrc, content);
    EXPECT_TRUE(filtered.empty());
}

// ---------------------------------------------------------------------------
// Layer manifest (R8 infrastructure)
// ---------------------------------------------------------------------------

girglint::LayerManifest parse_manifest_ok(const std::string& text) {
    girglint::LayerManifest manifest;
    std::string error;
    EXPECT_TRUE(girglint::parse_layer_manifest(text, manifest, error)) << error;
    return manifest;
}

TEST(LintLayers, ParsesManifestAndComputesReachability) {
    const auto manifest = parse_manifest_ok(read_fixture("layers_ok.toml"));
    ASSERT_EQ(manifest.layers.size(), 3u);
    EXPECT_EQ(manifest.include_roots, std::vector<std::string>{"src"});

    const girglint::Layer* top = manifest.layer_of("src/top/x.h");
    const girglint::Layer* mid = manifest.layer_of("src/mid/x.h");
    const girglint::Layer* base = manifest.layer_of("src/base/x.h");
    ASSERT_NE(top, nullptr);
    ASSERT_NE(mid, nullptr);
    ASSERT_NE(base, nullptr);
    EXPECT_EQ(top->name, "top");
    EXPECT_EQ(manifest.layer_of("src/top_special.h")->name, "top");
    EXPECT_EQ(manifest.layer_of("elsewhere/x.h"), nullptr);

    // top -> mid is declared, top -> base transitive, everything upward illegal.
    EXPECT_TRUE(manifest.allows_edge(*top, *mid));
    EXPECT_TRUE(manifest.allows_edge(*top, *base));
    EXPECT_TRUE(manifest.allows_edge(*base, *base));
    EXPECT_FALSE(manifest.allows_edge(*base, *top));
    EXPECT_FALSE(manifest.allows_edge(*mid, *top));
    EXPECT_FALSE(manifest.allows_edge(*base, *mid));
}

TEST(LintLayers, LongestPrefixWinsOnFileLevelSplits) {
    // Mirrors the real src/core split: a file-level prefix carves a
    // sub-layer out of a directory another layer owns.
    const auto manifest = parse_manifest_ok(
        "[layer.outer]\npaths = [\"src/a/\"]\ndeps = [\"inner\"]\n"
        "[layer.inner]\npaths = [\"src/a/special.\"]\ndeps = []\n");
    EXPECT_EQ(manifest.layer_of("src/a/special.h")->name, "inner");
    EXPECT_EQ(manifest.layer_of("src/a/special.cpp")->name, "inner");
    EXPECT_EQ(manifest.layer_of("src/a/other.h")->name, "outer");
}

TEST(LintLayers, RejectsCycle) {
    girglint::LayerManifest manifest;
    std::string error;
    EXPECT_FALSE(
        girglint::parse_layer_manifest(read_fixture("layers_cycle.toml"), manifest, error));
    EXPECT_NE(error.find("cycle"), std::string::npos) << error;
}

TEST(LintLayers, RejectsUnknownDepDuplicateAndMalformed) {
    girglint::LayerManifest manifest;
    std::string error;
    EXPECT_FALSE(girglint::parse_layer_manifest(
        "[layer.a]\npaths = [\"src/\"]\ndeps = [\"ghost\"]\n", manifest, error));
    EXPECT_NE(error.find("undeclared"), std::string::npos) << error;
    EXPECT_FALSE(girglint::parse_layer_manifest(
        "[layer.a]\npaths = [\"src/\"]\n[layer.a]\npaths = [\"bench/\"]\n", manifest,
        error));
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
    EXPECT_FALSE(girglint::parse_layer_manifest("[layer.a]\npaths = [\"src/\"\n",
                                                manifest, error));
    EXPECT_NE(error.find("malformed"), std::string::npos) << error;
}

TEST(LintLayersDeathTest, CycleInManifestIsFatal) {
    // The CLI refuses to run with a cyclic manifest (a cyclic "DAG" would
    // legalize every edge); model that reject-or-die path.
    const std::string cyclic = read_fixture("layers_cycle.toml");
    EXPECT_DEATH(
        {
            girglint::LayerManifest manifest;
            std::string error;
            if (!girglint::parse_layer_manifest(cyclic, manifest, error)) {
                std::fprintf(stderr, "girg-lint: %s\n", error.c_str());
                std::abort();
            }
        },
        "cycle");
}

// ---------------------------------------------------------------------------
// Project-wide rules: layering (R8) and unused-include (R9)
// ---------------------------------------------------------------------------

/// Lexes `sources` as one project, builds the context, and returns the
/// diagnostics for `report_path` only.
std::vector<Diagnostic> lint_project(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const girglint::LayerManifest* manifest, const std::vector<std::string>& only,
    const std::string& report_path) {
    std::vector<SourceFile> files;
    files.reserve(sources.size());
    for (const auto& [path, content] : sources) {
        files.push_back(girglint::lex_file(path, FileKind::kSrc, content));
    }
    const girglint::ProjectContext context =
        girglint::build_project_context(files, manifest);
    std::vector<Diagnostic> out;
    for (const SourceFile& file : files) {
        if (file.display_path == report_path) {
            girglint::run_rules(file, &context, only, out);
        }
    }
    return out;
}

TEST(LintLayering, FlagsUpwardInclude) {
    const auto manifest = parse_manifest_ok(read_fixture("layers_ok.toml"));
    const auto diagnostics = lint_project(
        {{"src/base/util.h", "#pragma once\n#include \"top/api.h\"\nint helper();\n"},
         {"src/top/api.h", "#pragma once\nint top_api();\n"}},
        &manifest, {"layering"}, "src/base/util.h");
    ASSERT_EQ(count_rule(diagnostics, "layering"), 1);
    EXPECT_NE(diagnostics[0].message.find("may not include layer 'top'"),
              std::string::npos);
}

TEST(LintLayering, TransitiveDependencyIsLegal) {
    const auto manifest = parse_manifest_ok(read_fixture("layers_ok.toml"));
    // top declares only mid; base is reachable through mid and thus legal.
    const auto diagnostics = lint_project(
        {{"src/top/api.cpp",
          "#include \"base/util.h\"\nint top_api() { return helper(); }\n"},
         {"src/base/util.h", "#pragma once\nint helper();\n"}},
        &manifest, {"layering"}, "src/top/api.cpp");
    EXPECT_EQ(count_rule(diagnostics, "layering"), 0);
}

TEST(LintLayering, AllowSuppressesWithReason) {
    const auto manifest = parse_manifest_ok(read_fixture("layers_ok.toml"));
    const auto diagnostics = lint_project(
        {{"src/base/util.h",
          "#pragma once\n// LINT-ALLOW(layering): transitional, tracked in ROADMAP\n"
          "#include \"top/api.h\"\nint helper();\n"},
         {"src/top/api.h", "#pragma once\nint top_api();\n"}},
        &manifest, {"layering"}, "src/base/util.h");
    EXPECT_EQ(count_rule(diagnostics, "layering"), 0);
}

TEST(LintUnusedInclude, FlagsDeadStdInclude) {
    const auto diagnostics =
        lint_project({{"src/core/fixture.cpp", read_fixture("unused_include_bad.cpp")}},
                     nullptr, {"unused-include"}, "src/core/fixture.cpp");
    ASSERT_EQ(count_rule(diagnostics, "unused-include"), 1);
    EXPECT_NE(diagnostics[0].message.find("<vector>"), std::string::npos);
}

TEST(LintUnusedInclude, CleanFixtureIsSilent) {
    const auto diagnostics =
        lint_project({{"src/core/fixture.cpp", read_fixture("unused_include_ok.cpp")}},
                     nullptr, {"unused-include"}, "src/core/fixture.cpp");
    EXPECT_EQ(count_rule(diagnostics, "unused-include"), 0);
}

TEST(LintUnusedInclude, FlagsDeadProjectInclude) {
    const auto diagnostics = lint_project(
        {{"src/core/dead.cpp", "#include \"core/a.h\"\nint unrelated() { return 0; }\n"},
         {"src/core/a.h", "#pragma once\nint alpha_fn();\n"}},
        nullptr, {"unused-include"}, "src/core/dead.cpp");
    ASSERT_EQ(count_rule(diagnostics, "unused-include"), 1);
    EXPECT_NE(diagnostics[0].message.find("core/a.h"), std::string::npos);
}

TEST(LintUnusedInclude, TransitiveUseKeepsUmbrellaInclude) {
    // consumer references only alpha_fn, which b.h re-exports by including
    // a.h — removing "core/b.h" would break the build, so it must stay.
    const auto diagnostics = lint_project(
        {{"src/core/consumer.cpp",
          "#include \"core/b.h\"\nint use() { return alpha_fn(); }\n"},
         {"src/core/a.h", "#pragma once\nint alpha_fn();\n"},
         {"src/core/b.h", "#pragma once\n#include \"core/a.h\"\nint beta_fn();\n"}},
        nullptr, {"unused-include"}, "src/core/consumer.cpp");
    EXPECT_EQ(count_rule(diagnostics, "unused-include"), 0);
}

TEST(LintUnusedInclude, OwnHeaderIsExempt) {
    const auto diagnostics = lint_project(
        {{"src/core/own.cpp", "#include \"core/own.h\"\nint helper() { return 1; }\n"},
         {"src/core/own.h", "#pragma once\nint own_fn();\n"}},
        nullptr, {"unused-include"}, "src/core/own.cpp");
    EXPECT_EQ(count_rule(diagnostics, "unused-include"), 0);
}

TEST(LintUnusedInclude, AllowSuppressesAndIsNotStaleWithoutContext) {
    const std::string content =
        "// LINT-ALLOW(unused-include): documents the subsystem under test\n"
        "#include <vector>\nint x = 0;\n";
    // Full run with project context: the hit exists, the allow consumes it.
    const auto with_context =
        lint_project({{"src/core/x.cpp", content}}, nullptr, {}, "src/core/x.cpp");
    EXPECT_EQ(count_rule(with_context, "unused-include"), 0);
    EXPECT_EQ(count_rule(with_context, "allow-syntax"), 0);
    // Full run without context: the rule cannot run, so the allow must not
    // be reported stale.
    EXPECT_EQ(count_rule(lint("src/core/x.cpp", FileKind::kSrc, content), "allow-syntax"),
              0);
}

// ---------------------------------------------------------------------------
// R10 — thread-safety wrappers
// ---------------------------------------------------------------------------

TEST(LintThreadSafety, FlagsRawMembers) {
    const auto diagnostics =
        lint_fixture("thread_safety_bad.cpp", "src/core/fixture.cpp");
    // One raw std::mutex and one raw std::condition_variable.
    EXPECT_EQ(count_rule(diagnostics, "thread-safety"), 2);
}

TEST(LintThreadSafety, WrappersAndLockTemplatesAreClean) {
    const auto diagnostics =
        lint_fixture("thread_safety_ok.cpp", "src/core/fixture.cpp");
    EXPECT_EQ(count_rule(diagnostics, "thread-safety"), 0);
}

TEST(LintThreadSafety, AllowWithReasonSuppresses) {
    const std::string wrapper_internals =
        "#include <mutex>\nclass Mutex {\n"
        "    // LINT-ALLOW(thread-safety): this is the annotated wrapper itself\n"
        "    std::mutex m_;\n};\n";
    const auto diagnostics = lint("src/core/annotations.h", FileKind::kSrc,
                                  wrapper_internals);
    EXPECT_EQ(count_rule(diagnostics, "thread-safety"), 0);
    EXPECT_EQ(count_rule(diagnostics, "allow-syntax"), 0);
}

// ---------------------------------------------------------------------------
// SARIF output
// ---------------------------------------------------------------------------

TEST(LintSarif, MatchesGoldenLog) {
    const std::vector<Diagnostic> diagnostics{
        {"src/core/greedy.cpp", 12, "pow",
         "std::pow in a designated hot-path file; use repeated multiplication"},
        {"/abs/build/path/src/girg/girg.h", 3, "format",
         "tab character; indent with \"spaces\""},
    };
    EXPECT_EQ(girglint::to_sarif(diagnostics), read_fixture("sarif_golden.sarif"));
}

TEST(LintSarif, ListsEveryRuleAndRelativizesPaths) {
    const std::vector<Diagnostic> diagnostics{
        {"/abs/build/path/src/girg/girg.h", 3, "format", "tab character"}};
    const std::string sarif = girglint::to_sarif(diagnostics);
    for (const girglint::Rule& rule : girglint::all_rules()) {
        EXPECT_NE(sarif.find("\"id\": \"" + std::string(rule.id) + "\""),
                  std::string::npos)
            << rule.id;
    }
    EXPECT_NE(sarif.find("\"uri\": \"src/girg/girg.h\""), std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
    EXPECT_EQ(sarif.find("/abs/build/path"), std::string::npos);
}

// ---------------------------------------------------------------------------
// --fix (mechanical format repair)
// ---------------------------------------------------------------------------

TEST(LintFix, RepairsMechanicalFindings) {
    const std::string messy = "int a = 1;  \r\n\tint b = 2;\nint c = 3;";
    const std::string fixed = girglint::apply_format_fixes(messy);
    // CRLF normalized, trailing whitespace stripped, final newline added;
    // the tab is a finding --fix deliberately does not touch.
    EXPECT_EQ(fixed, "int a = 1;\n\tint b = 2;\nint c = 3;\n");
    const auto diagnostics = lint("src/core/x.cpp", FileKind::kSrc, fixed);
    EXPECT_EQ(count_rule(diagnostics, "format"), 1);  // only the tab remains
}

TEST(LintFix, IsIdempotent) {
    const std::vector<std::string> inputs{
        "", "x", "x\n", "x\n\n", "a \t\r\nb\r\nc  ",
        "int a = 1;  \r\n\tint b = 2;\nint c = 3;"};
    for (const std::string& input : inputs) {
        const std::string once = girglint::apply_format_fixes(input);
        EXPECT_EQ(girglint::apply_format_fixes(once), once) << "input: " << input;
    }
}

TEST(LintLexer, RecordsDefines) {
    const SourceFile f = girglint::lex_file(
        "src/a.h", FileKind::kSrc,
        "#define FOO 1\n#define BAR(x) ((x) + 1)\n#define   SPACED value\n");
    EXPECT_EQ(f.defines, (std::vector<std::string>{"FOO", "BAR", "SPACED"}));
}

TEST(LintRegistry, AllRulesHaveIdAndSummary) {
    const auto& rules = girglint::all_rules();
    EXPECT_GE(rules.size(), 12u);
    std::set<std::string> ids;
    for (const girglint::Rule& rule : rules) {
        EXPECT_NE(std::string(rule.id), "");
        EXPECT_NE(std::string(rule.summary), "");
        EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate rule id " << rule.id;
    }
}

}  // namespace
