#include <algorithm>
#include <cctype>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "lint.h"
#include "std_symbols.h"

namespace girglint {

namespace {

using Tokens = std::vector<Token>;

[[nodiscard]] bool is_ident(const Token& t, std::string_view text) noexcept {
    return t.kind == Token::Kind::kIdentifier && t.text == text;
}

[[nodiscard]] bool is_punct(const Token& t, std::string_view text) noexcept {
    return t.kind == Token::Kind::kPunct && t.text == text;
}

/// tokens[i - 1], or a harmless sentinel at the file start.
[[nodiscard]] const Token& prev(const Tokens& ts, std::size_t i) noexcept {
    static const Token kNone{Token::Kind::kPunct, ";", 0};
    return i == 0 ? kNone : ts[i - 1];
}

[[nodiscard]] const Token& next(const Tokens& ts, std::size_t i) noexcept {
    static const Token kNone{Token::Kind::kPunct, ";", 0};
    return i + 1 < ts.size() ? ts[i + 1] : kNone;
}

[[nodiscard]] bool path_ends_with(const SourceFile& f, std::string_view suffix) noexcept {
    const std::string& p = f.display_path;
    return p.size() >= suffix.size() && p.compare(p.size() - suffix.size(),
                                                 suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------------
// R1 — nondeterminism: ban wall-clock, thread-id, and non-counter-seeded
// randomness sources. Every result the repo ships is advertised as
// byte-identical across runs and thread counts; one std::random_device or
// time(nullptr) seed silently voids that. Bench harness files may read the
// monotonic/system clocks (that is what a benchmark does), but still must
// not use ambient randomness.
// ---------------------------------------------------------------------------
void check_nondeterminism(const SourceFile& f, std::vector<RuleHit>& hits) {
    const Tokens& ts = f.tokens;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        const Token& t = ts[i];
        if (t.kind != Token::Kind::kIdentifier) continue;

        if (t.text == "random_device") {
            hits.push_back({t.line, "nondeterminism",
                            "std::random_device is entropy-seeded; derive a stream from "
                            "the trial seed (RngStreams) instead"});
            continue;
        }
        if ((t.text == "rand" || t.text == "srand") && is_punct(next(ts, i), "(") &&
            !is_punct(prev(ts, i), ".")) {
            hits.push_back({t.line, "nondeterminism",
                            t.text + "() uses hidden global state; use Rng / RngStreams"});
            continue;
        }
        if (t.text == "time" && is_punct(next(ts, i), "(") && i + 2 < ts.size() &&
            (is_ident(ts[i + 2], "nullptr") || is_ident(ts[i + 2], "NULL") ||
             (ts[i + 2].kind == Token::Kind::kNumber && ts[i + 2].text == "0")) &&
            is_punct(next(ts, i + 2), ")")) {
            hits.push_back({t.line, "nondeterminism",
                            "time(...) as a seed/value makes runs unreproducible"});
            continue;
        }
        if (f.kind == FileKind::kSrc) {
            if ((t.text == "steady_clock" || t.text == "system_clock" ||
                 t.text == "high_resolution_clock") &&
                is_punct(next(ts, i), "::") && is_ident(next(ts, i + 1), "now")) {
                hits.push_back({t.line, "nondeterminism",
                                t.text + "::now() in library code; timing belongs in "
                                         "bench/ (or pass timestamps in)"});
                continue;
            }
            if (t.text == "get_id" && is_punct(next(ts, i), "(") &&
                (is_punct(prev(ts, i), "::") || is_punct(prev(ts, i), "."))) {
                hits.push_back({t.line, "nondeterminism",
                                "thread ids vary run to run; key per-thread state by "
                                "pool worker index instead"});
                continue;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R2 — unordered-iter: iteration over std::unordered_map/set. Hash-table
// iteration order is implementation-defined and can differ across libstdc++
// versions and ASLR runs; a loop over one that feeds routing decisions,
// stats merges, or output ordering breaks reproducibility. Lookups
// (find/contains/operator[]) are fine. The rule is a conservative
// approximation: any range-for or .begin() walk over a variable declared
// with an unordered type in the same file needs a LINT-ALLOW(unordered-iter)
// stating why the loop body is order-insensitive.
// ---------------------------------------------------------------------------
void check_unordered_iter(const SourceFile& f, std::vector<RuleHit>& hits) {
    const Tokens& ts = f.tokens;

    // Pass 1: names bound to unordered container types, including local
    // aliases (`using Slots = std::unordered_map<...>;`).
    std::set<std::string> unordered_types{"unordered_map", "unordered_set",
                                          "unordered_multimap", "unordered_multiset"};
    std::set<std::string> unordered_vars;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts[i].kind != Token::Kind::kIdentifier ||
            unordered_types.count(ts[i].text) == 0) {
            continue;
        }
        // Alias definition: using NAME = [std ::] unordered_xxx<...>;
        std::size_t back = i;
        if (back >= 2 && is_punct(ts[back - 1], "::") && is_ident(ts[back - 2], "std")) {
            back -= 2;
        }
        if (back >= 2 && is_punct(ts[back - 1], "=") &&
            ts[back - 2].kind == Token::Kind::kIdentifier && back >= 3 &&
            is_ident(ts[back - 3], "using")) {
            unordered_types.insert(ts[back - 2].text);
        }

        // Skip the template argument list if present (an alias use like
        // `Index index;` has none), then take the declared name.
        std::size_t j = i + 1;
        if (j < ts.size() && is_punct(ts[j], "<")) {
            int depth = 0;
            for (; j < ts.size(); ++j) {
                if (is_punct(ts[j], "<")) ++depth;
                if (is_punct(ts[j], ">") && --depth == 0) break;
            }
            ++j;
        }
        for (; j < ts.size(); ++j) {
            if (is_punct(ts[j], "&") || is_punct(ts[j], "*") ||
                is_ident(ts[j], "const")) {
                continue;
            }
            break;
        }
        if (j < ts.size() && ts[j].kind == Token::Kind::kIdentifier) {
            unordered_vars.insert(ts[j].text);
        }
    }

    const auto report = [&](int line, const std::string& name) {
        hits.push_back({line, "unordered-iter",
                        "iteration over unordered container '" + name +
                            "' observes hash order; use a sorted/vector-backed container "
                            "or prove order-insensitivity in a LINT-ALLOW"});
    };

    // Pass 2a: range-for whose range expression ends in an unordered name.
    for (std::size_t i = 0; i + 3 < ts.size(); ++i) {
        if (!is_ident(ts[i], "for") || !is_punct(ts[i + 1], "(")) continue;
        int depth = 0;
        std::size_t colon = 0;
        std::size_t close = 0;
        for (std::size_t j = i + 1; j < ts.size(); ++j) {
            if (is_punct(ts[j], "(")) ++depth;
            if (is_punct(ts[j], ")") && --depth == 0) {
                close = j;
                break;
            }
            if (depth == 1 && is_punct(ts[j], ":") && colon == 0) colon = j;
        }
        if (colon == 0 || close == 0) continue;
        // Last identifier of the range expression: covers `m`, `obj.m`,
        // `this->m`, and `ns::m`; a trailing call like `m.keys()` ends in
        // ')' and is out of scope for the heuristic.
        const Token& last = ts[close - 1];
        if (last.kind == Token::Kind::kIdentifier && unordered_vars.count(last.text) > 0) {
            report(ts[i].line, last.text);
        }
    }

    // Pass 2b: iterator walks (`= name.begin()` / `name.cbegin()`).
    for (std::size_t i = 0; i + 3 < ts.size(); ++i) {
        if (ts[i].kind != Token::Kind::kIdentifier ||
            unordered_vars.count(ts[i].text) == 0) {
            continue;
        }
        if (is_punct(ts[i + 1], ".") &&
            (is_ident(ts[i + 2], "begin") || is_ident(ts[i + 2], "cbegin")) &&
            is_punct(ts[i + 3], "(")) {
            report(ts[i].line, ts[i].text);
        }
    }
}

// ---------------------------------------------------------------------------
// R3 — pow: std::pow in designated hot-path files. pow() costs ~20-50x a
// multiply and, worse, may differ in the last ulp across libm versions —
// the repeated-multiplication forms used by PhiEvaluator and the samplers
// are both faster and bit-stable. Setup/CDF code in these files may keep
// pow with a LINT-ALLOW(pow) explaining why it is off the per-edge path.
// ---------------------------------------------------------------------------
constexpr std::string_view kPowHotFiles[] = {
    "girg/phi_evaluator.h", "girg/edge_probability.h", "girg/fast_sampler.cpp",
    "girg/naive_sampler.cpp", "core/objective.cpp",    "core/greedy.cpp",
    "core/phi_dfs.cpp",      "core/router.cpp",        "graph/bfs.cpp",
    "geometry/torus.h",      "girg/phi_records.h",     "girg/phi_records.cpp",
    "girg/phi_simd_avx2.cpp", "girg/phi_memo.h",       "girg/phi_kernels_inl.h",
};

void check_pow(const SourceFile& f, std::vector<RuleHit>& hits) {
    const bool hot = std::any_of(std::begin(kPowHotFiles), std::end(kPowHotFiles),
                                 [&](std::string_view s) { return path_ends_with(f, s); });
    if (!hot) return;
    const Tokens& ts = f.tokens;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        const Token& t = ts[i];
        if (t.kind != Token::Kind::kIdentifier) continue;
        if ((t.text == "pow" || t.text == "powf" || t.text == "powl") &&
            is_punct(next(ts, i), "(") && !is_punct(prev(ts, i), ".")) {
            hits.push_back({t.line, "pow",
                            "std::pow in a designated hot-path file; use repeated "
                            "multiplication (integer exponents) or move to setup code "
                            "with a LINT-ALLOW"});
        }
    }
}

// ---------------------------------------------------------------------------
// R4 — atomic-alignment + relaxed: std::atomic_ref is only lock-free (and
// on some targets, only correct) when the referenced object is aligned to
// required_alignment; a TU using it must carry a static_assert pinning
// that. And every memory_order_relaxed needs a LINT-ALLOW(relaxed) arguing
// why no ordering is needed — relaxed is correct in counters and
// write-once-same-value schemes, and silently wrong almost everywhere else.
// ---------------------------------------------------------------------------
void check_atomic_alignment(const SourceFile& f, std::vector<RuleHit>& hits) {
    const Tokens& ts = f.tokens;
    int first_use_line = 0;
    bool has_assert = false;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (is_ident(ts[i], "atomic_ref") && first_use_line == 0) {
            first_use_line = ts[i].line;
        }
        if (is_ident(ts[i], "required_alignment")) {
            // Look back a few tokens for static_assert (the pattern is
            // static_assert(std::atomic_ref<T>::required_alignment ...)).
            for (std::size_t back = 1; back <= 12 && back <= i; ++back) {
                if (is_ident(ts[i - back], "static_assert")) {
                    has_assert = true;
                    break;
                }
            }
        }
    }
    if (first_use_line != 0 && !has_assert) {
        hits.push_back({first_use_line, "atomic-alignment",
                        "std::atomic_ref used without a static_assert on "
                        "required_alignment of the referenced type"});
    }
}

void check_relaxed(const SourceFile& f, std::vector<RuleHit>& hits) {
    for (const Token& t : f.tokens) {
        if (is_ident(t, "memory_order_relaxed")) {
            hits.push_back({t.line, "relaxed",
                            "memory_order_relaxed requires a LINT-ALLOW(relaxed) stating "
                            "why no ordering is needed"});
        }
    }
}

// ---------------------------------------------------------------------------
// R5 — include: header self-containment and include hygiene. Headers carry
// #pragma once (repo convention) and never open namespaces wholesale; any
// file using a curated set of std vocabulary types must include the owning
// header *directly* — transitive includes rot when the intermediate header
// is cleaned up.
// ---------------------------------------------------------------------------
struct StdRequirement {
    std::string_view symbol;  // identifier following `std ::` (or `assert(`)
    std::string_view header;
};

constexpr StdRequirement kStdRequirements[] = {
    {"vector", "vector"},
    {"string", "string"},
    {"unordered_map", "unordered_map"},
    {"unordered_set", "unordered_set"},
    {"deque", "deque"},
    {"queue", "queue"},
    {"priority_queue", "queue"},
    {"array", "array"},
    {"span", "span"},
    {"optional", "optional"},
    {"function", "functional"},
    {"atomic", "atomic"},
    {"atomic_ref", "atomic"},
    {"mutex", "mutex"},
    {"lock_guard", "mutex"},
    {"unique_lock", "mutex"},
    {"scoped_lock", "mutex"},
    {"condition_variable", "condition_variable"},
    {"thread", "thread"},
    {"jthread", "thread"},
    {"shared_ptr", "memory"},
    {"unique_ptr", "memory"},
    {"weak_ptr", "memory"},
    {"make_shared", "memory"},
    {"make_unique", "memory"},
    {"ostringstream", "sstream"},
    {"istringstream", "sstream"},
    {"stringstream", "sstream"},
    {"numeric_limits", "limits"},
    {"sort", "algorithm"},
    {"stable_sort", "algorithm"},
    {"binary_search", "algorithm"},
    {"lower_bound", "algorithm"},
    {"upper_bound", "algorithm"},
    {"adjacent_find", "algorithm"},
    {"min_element", "algorithm"},
    {"max_element", "algorithm"},
    {"clamp", "algorithm"},
    {"accumulate", "numeric"},
    {"iota", "numeric"},
    {"pow", "cmath"},
    {"sqrt", "cmath"},
    {"log", "cmath"},
    {"log2", "cmath"},
    {"log1p", "cmath"},
    {"exp", "cmath"},
    {"floor", "cmath"},
    {"ceil", "cmath"},
    {"fabs", "cmath"},
    {"isnan", "cmath"},
    {"isfinite", "cmath"},
};

void check_include(const SourceFile& f, std::vector<RuleHit>& hits) {
    if (f.is_header && !f.has_pragma_once) {
        hits.push_back({1, "include", "header is missing #pragma once"});
    }

    const Tokens& ts = f.tokens;
    if (f.is_header) {
        for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
            if (is_ident(ts[i], "using") && is_ident(ts[i + 1], "namespace")) {
                hits.push_back({ts[i].line,
                                "include",
                                "using-namespace in a header leaks into every includer"});
            }
        }
    }

    std::set<std::string, std::less<>> included;
    for (const Include& inc : f.includes) {
        if (inc.angled) included.insert(inc.header);
    }

    std::set<std::string_view> reported;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        // assert() needs <cassert>.
        if (is_ident(ts[i], "assert") && is_punct(next(ts, i), "(") &&
            !is_punct(prev(ts, i), ".") && !is_punct(prev(ts, i), "::")) {
            if (included.find("cassert") == included.end() &&
                reported.insert("cassert").second) {
                hits.push_back({ts[i].line, "include",
                                "assert() used without a direct #include <cassert>"});
            }
            continue;
        }
        // std::SYMBOL needs the owning header included directly.
        if (!is_ident(ts[i], "std") || !is_punct(next(ts, i), "::") || i + 2 >= ts.size()) {
            continue;
        }
        const Token& sym = ts[i + 2];
        if (sym.kind != Token::Kind::kIdentifier) continue;
        for (const StdRequirement& req : kStdRequirements) {
            if (sym.text != req.symbol) continue;
            if (included.find(req.header) == included.end() &&
                reported.insert(req.symbol).second) {
                hits.push_back({sym.line, "include",
                                "std::" + sym.text + " used without a direct #include <" +
                                    std::string(req.header) + ">"});
            }
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// R6 — simd-equiv: every *_simd kernel file must name its scalar-equivalence
// test in a comment (`Scalar-equivalence test: tests/<name>.cpp`), and the
// named file must exist on disk. Vector kernels are only trusted through
// their bit-identity suite; a renamed or deleted test would silently orphan
// the kernel, so a stale name is a diagnostic too (fixtures included).
// ---------------------------------------------------------------------------
constexpr std::string_view kSimdMarker = "Scalar-equivalence test:";

[[nodiscard]] std::string basename_of(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Prefix of `path` up to the *last* top-level-tree component (`src/`,
/// `bench/`, `tests/`, `tools/`) — the repo root the named test is resolved
/// against. The complement of repo_relative(): absolute build paths,
/// relative CI paths, and fixture paths all resolve to the same root.
[[nodiscard]] std::string repo_root_of(const std::string& path) {
    return path.substr(0, path.size() - repo_relative(path).size());
}

void check_simd_equiv(const SourceFile& f, std::vector<RuleHit>& hits) {
    if (basename_of(f.display_path).find("_simd") == std::string::npos) return;
    for (const Comment& comment : f.comments) {
        const std::size_t at = comment.text.find(kSimdMarker);
        if (at == std::string::npos) continue;
        // First whitespace-delimited token after the marker names the test.
        const auto is_space = [](char c) {
            return c == ' ' || c == '\t' || c == '\n' || c == '\r';
        };
        std::size_t begin = at + kSimdMarker.size();
        while (begin < comment.text.size() && is_space(comment.text[begin])) ++begin;
        std::size_t end = begin;
        while (end < comment.text.size() && !is_space(comment.text[end])) ++end;
        const std::string named = comment.text.substr(begin, end - begin);
        if (named.empty()) {
            hits.push_back({comment.line, "simd-equiv",
                            "scalar-equivalence marker names no test file"});
            return;
        }
        std::error_code ec;
        if (!std::filesystem::is_regular_file(repo_root_of(f.display_path) + named, ec)) {
            hits.push_back({comment.line, "simd-equiv",
                            "scalar-equivalence test '" + named +
                                "' does not exist; update the stale name"});
        }
        return;  // first marker wins
    }
    hits.push_back({1, "simd-equiv",
                    "SIMD kernel file must name its scalar-equivalence test in a "
                    "comment: 'Scalar-equivalence test: tests/<name>.cpp'"});
}

// ---------------------------------------------------------------------------
// R7 — layout-pin: in the designated on-disk-format files, every struct
// whose doc comment marks it as on-disk must carry BOTH layout pins in the
// same file: a std::is_trivially_copyable static_assert (the serializer
// memcpys these structs to and from the file) and a sizeof(...) == N
// static_assert (so any field edit that moves bytes fails to compile
// instead of silently writing packs no reader can open). A struct is marked
// on-disk when a comment within the six lines above its definition contains
// "on-disk" (case-insensitive).
// ---------------------------------------------------------------------------
constexpr std::string_view kFormatStructFiles[] = {
    "graph/packed_graph.h",
};

[[nodiscard]] bool mentions_on_disk(const std::string& text) {
    std::string lowered(text);
    std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return lowered.find("on-disk") != std::string::npos;
}

void check_layout_pin(const SourceFile& f, std::vector<RuleHit>& hits) {
    const bool format_file =
        std::any_of(std::begin(kFormatStructFiles), std::end(kFormatStructFiles),
                    [&](std::string_view s) { return path_ends_with(f, s); });
    if (!format_file) return;
    const Tokens& ts = f.tokens;

    // Pass 1: struct *definitions* (a '{' before the next ';') whose
    // preceding comment block marks them on-disk.
    struct OnDiskStruct {
        std::string name;
        int line;
        bool trivially_pinned = false;
        bool size_pinned = false;
    };
    std::vector<OnDiskStruct> structs;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
        if (!is_ident(ts[i], "struct") || ts[i + 1].kind != Token::Kind::kIdentifier) {
            continue;
        }
        bool is_definition = false;
        for (std::size_t j = i + 2; j < ts.size(); ++j) {
            if (is_punct(ts[j], "{")) is_definition = true;
            if (is_punct(ts[j], "{") || is_punct(ts[j], ";")) break;
        }
        if (!is_definition) continue;
        const bool marked = std::any_of(
            f.comments.begin(), f.comments.end(), [&](const Comment& comment) {
                return comment.line >= ts[i].line - 6 && comment.line <= ts[i].line &&
                       mentions_on_disk(comment.text);
            });
        if (marked) structs.push_back({ts[i + 1].text, ts[i].line, false, false});
    }

    // Pass 2: credit each static_assert's argument tokens to the struct
    // names it mentions.
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (!is_ident(ts[i], "static_assert") || !is_punct(next(ts, i), "(")) continue;
        bool trivially = false;
        bool size_of = false;
        std::vector<std::string> named;
        int depth = 0;
        for (std::size_t j = i + 1; j < ts.size(); ++j) {
            if (is_punct(ts[j], "(")) ++depth;
            if (is_punct(ts[j], ")") && --depth == 0) break;
            if (ts[j].kind != Token::Kind::kIdentifier) continue;
            if (ts[j].text.rfind("is_trivially_copyable", 0) == 0) trivially = true;
            if (ts[j].text == "sizeof") size_of = true;
            named.push_back(ts[j].text);
        }
        for (OnDiskStruct& record : structs) {
            if (std::find(named.begin(), named.end(), record.name) == named.end()) continue;
            record.trivially_pinned = record.trivially_pinned || trivially;
            record.size_pinned = record.size_pinned || size_of;
        }
    }

    for (const OnDiskStruct& record : structs) {
        if (!record.trivially_pinned) {
            hits.push_back({record.line, "layout-pin",
                            "on-disk struct " + record.name +
                                " lacks a std::is_trivially_copyable static_assert"});
        }
        if (!record.size_pinned) {
            hits.push_back({record.line, "layout-pin",
                            "on-disk struct " + record.name +
                                " lacks a sizeof(...) == N layout-pin static_assert"});
        }
    }
}

// ---------------------------------------------------------------------------
// R8 — layering: every quoted include must follow the layer DAG declared in
// tools/lint/layers.toml. The architecture is a strict stack (base →
// concurrency/random/geometry → graph → girg → routing → applications); an
// upward or sideways include is how cyclic coupling starts, and the compiler
// will happily accept it. Edges are legal within a layer and along the
// *transitive* closure of declared dependencies; anything else needs either
// a manifest change (a real new dependency, reviewed as such) or a
// LINT-ALLOW(layering) with the reason.
// ---------------------------------------------------------------------------
void check_layering(const SourceFile& f, const ProjectContext& project,
                    std::vector<RuleHit>& hits) {
    if (project.manifest == nullptr) return;
    const LayerManifest& manifest = *project.manifest;
    const std::string repo_path = repo_relative(f.display_path);
    const Layer* from = manifest.layer_of(repo_path);
    if (from == nullptr) return;  // unclaimed files are exempt
    for (const Include& inc : f.includes) {
        if (inc.angled) continue;
        const std::string target = project.resolve(f, inc);
        if (target.empty()) continue;  // not part of the lexed project
        const Layer* to = manifest.layer_of(target);
        if (to == nullptr || manifest.allows_edge(*from, *to)) continue;
        hits.push_back({inc.line, "layering",
                        "layer '" + from->name + "' may not include layer '" + to->name +
                            "' (\"" + inc.header +
                            "\"); declare the dependency in tools/lint/layers.toml or "
                            "invert the edge"});
    }
}

// ---------------------------------------------------------------------------
// R9 — unused-include: an #include none of whose names are referenced. For
// std headers the judgment uses the curated marker table (std_symbols.cpp);
// for project headers it uses the transitive export sets in ProjectContext.
// Both sides over-approximate "used", so a hit means the include really
// provides nothing the file mentions — dead weight that slows every rebuild
// and misleads readers about the file's dependencies. Includes kept for
// documentation or platform reasons take a LINT-ALLOW(unused-include).
// ---------------------------------------------------------------------------
[[nodiscard]] std::string stem_of(const std::string& path) {
    const std::string base = basename_of(path);
    const std::size_t dot = base.rfind('.');
    return dot == std::string::npos ? base : base.substr(0, dot);
}

void check_unused_include(const SourceFile& f, const ProjectContext& project,
                          std::vector<RuleHit>& hits) {
    std::set<std::string_view> referenced;
    for (const Token& t : f.tokens) {
        if (t.kind == Token::Kind::kIdentifier) referenced.insert(t.text);
    }
    const std::string own_stem = stem_of(f.display_path);

    for (const Include& inc : f.includes) {
        if (inc.angled) {
            const std::vector<StdHeaderMarkers>& table = std_header_markers();
            const auto it = std::find_if(
                table.begin(), table.end(),
                [&](const StdHeaderMarkers& m) { return m.header == inc.header; });
            if (it == table.end()) continue;  // unknown header: never judged
            const bool live =
                std::any_of(it->symbols.begin(), it->symbols.end(),
                            [&](std::string_view s) { return referenced.count(s) > 0; });
            if (!live) {
                hits.push_back({inc.line, "unused-include",
                                "#include <" + inc.header +
                                    "> is unused: none of its symbols are referenced"});
            }
            continue;
        }
        // A TU always keeps its own header (that is where its declarations
        // live), matched by stem so foo.cpp <-> foo.h pairs are exempt.
        if (stem_of(inc.header) == own_stem) continue;
        const std::string target = project.resolve(f, inc);
        if (target.empty()) continue;
        const auto exp = project.exports.find(target);
        if (exp == project.exports.end() || exp->second.empty()) continue;
        const bool live =
            std::any_of(exp->second.begin(), exp->second.end(),
                        [&](const std::string& s) { return referenced.count(s) > 0; });
        if (!live) {
            hits.push_back({inc.line, "unused-include",
                            "#include \"" + inc.header +
                                "\" is unused: nothing it (transitively) declares is "
                                "referenced"});
        }
    }
}

// ---------------------------------------------------------------------------
// R10 — thread-safety: a raw std::mutex / std::condition_variable declared
// as a member (or variable) is invisible to Clang's -Wthread-safety
// analysis: libstdc++ types carry no capability attributes, so nothing the
// lock protects is ever checked. Every synchronization primitive in the
// tree goes through the annotated wrappers in core/annotations.h
// (Mutex/MutexLock/UniqueLock/CondVar) so the CI clang leg can prove the
// locking discipline. The wrappers' own internals carry the one legitimate
// LINT-ALLOW(thread-safety).
// ---------------------------------------------------------------------------
void check_thread_safety(const SourceFile& f, std::vector<RuleHit>& hits) {
    static const std::set<std::string_view> kRawSyncTypes{
        "mutex",        "recursive_mutex",    "timed_mutex",
        "shared_mutex", "shared_timed_mutex", "recursive_timed_mutex",
        "condition_variable", "condition_variable_any"};
    const Tokens& ts = f.tokens;
    for (std::size_t i = 0; i + 3 < ts.size(); ++i) {
        if (!is_ident(ts[i], "std") || !is_punct(ts[i + 1], "::")) continue;
        const Token& type = ts[i + 2];
        if (type.kind != Token::Kind::kIdentifier ||
            kRawSyncTypes.count(type.text) == 0) {
            continue;
        }
        const Token& name = ts[i + 3];
        if (name.kind != Token::Kind::kIdentifier) continue;
        const Token& after = next(ts, i + 3);
        if (!is_punct(after, ";") && !is_punct(after, "{") && !is_punct(after, "=")) {
            continue;
        }
        hits.push_back({type.line, "thread-safety",
                        "raw std::" + type.text + " declaration '" + name.text +
                            "' is invisible to -Wthread-safety; use the annotated "
                            "wrappers in core/annotations.h (Mutex/MutexLock/"
                            "UniqueLock/CondVar)"});
    }
}

// ---------------------------------------------------------------------------
// format — mechanical whitespace invariants that do not need clang-format:
// no tabs, no trailing whitespace, no CR, <= 100 columns, single trailing
// newline. clang-format (CI) owns real layout; this keeps the tree clean
// where only a text editor is available.
// ---------------------------------------------------------------------------
constexpr std::size_t kMaxColumns = 100;

void check_format(const SourceFile& f, std::vector<RuleHit>& hits) {
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string& line = f.lines[i];
        const int lineno = static_cast<int>(i) + 1;
        if (line.find('\t') != std::string::npos) {
            hits.push_back({lineno, "format", "tab character; indent with spaces"});
        }
        if (!line.empty() && line.back() == '\r') {
            hits.push_back({lineno, "format", "CRLF line ending"});
        } else if (!line.empty() && (line.back() == ' ' || line.back() == '\t')) {
            hits.push_back({lineno, "format", "trailing whitespace"});
        }
        if (line.size() > kMaxColumns) {
            hits.push_back({lineno, "format",
                            "line is " + std::to_string(line.size()) + " columns (max " +
                                std::to_string(kMaxColumns) + ")"});
        }
    }
    if (!f.lines.empty() && !f.ends_with_newline) {
        hits.push_back({static_cast<int>(f.lines.size()), "format",
                        "file does not end with a newline"});
    }
}

}  // namespace

const std::vector<Rule>& all_rules() {
    static const std::vector<Rule> kRules{
        {"nondeterminism",
         "R1: entropy seeds, wall clocks, and thread ids are banned in library code",
         check_nondeterminism},
        {"unordered-iter",
         "R2: iterating an unordered container needs proof of order-insensitivity",
         check_unordered_iter},
        {"pow", "R3: std::pow is banned in designated hot-path files", check_pow},
        {"atomic-alignment",
         "R4a: atomic_ref requires an alignment static_assert in the same TU",
         check_atomic_alignment},
        {"relaxed", "R4b: memory_order_relaxed requires an annotated justification",
         check_relaxed},
        {"include", "R5: pragma-once, no using-namespace in headers, direct std includes",
         check_include},
        {"simd-equiv",
         "R6: *_simd kernel files must name an existing scalar-equivalence test",
         check_simd_equiv},
        {"layout-pin",
         "R7: on-disk format structs need trivially-copyable + sizeof static_asserts",
         check_layout_pin},
        {"layering",
         "R8: quoted includes must respect the layer DAG (tools/lint/layers.toml)",
         nullptr, check_layering},
        {"unused-include",
         "R9: an include none of whose names are referenced must be removed",
         nullptr, check_unused_include},
        {"thread-safety",
         "R10: raw std mutex/condvar declarations must use the annotated wrappers",
         check_thread_safety},
        {"format", "whitespace hygiene: tabs, trailing space, CRLF, 100 columns",
         check_format},
    };
    return kRules;
}

void run_rules(const SourceFile& file, std::vector<Diagnostic>& out) {
    run_rules(file, nullptr, {}, out);
}

void run_rules(const SourceFile& file, const std::vector<std::string>& only,
               std::vector<Diagnostic>& out) {
    run_rules(file, nullptr, only, out);
}

void run_rules(const SourceFile& file, const ProjectContext* project,
               const std::vector<std::string>& only, std::vector<Diagnostic>& out) {
    const auto selected = [&](const char* id) {
        return only.empty() ||
               std::find(only.begin(), only.end(), id) != only.end();
    };
    std::vector<RuleHit> hits;
    // Rules that actually ran: an allow naming a rule that could not run
    // (a project rule with no context) must not be reported as stale.
    std::set<std::string_view> ran;
    for (const Rule& rule : all_rules()) {
        if (!selected(rule.id)) continue;
        bool did_run = false;
        if (rule.check != nullptr) {
            rule.check(file, hits);
            did_run = true;
        }
        if (rule.check_project != nullptr && project != nullptr) {
            rule.check_project(file, *project, hits);
            did_run = true;
        }
        if (did_run) ran.insert(rule.id);
    }

    std::vector<bool> allow_used(file.allows.size(), false);
    for (const RuleHit& hit : hits) {
        bool suppressed = false;
        for (std::size_t a = 0; a < file.allows.size(); ++a) {
            const Allow& allow = file.allows[a];
            if (allow.malformed || allow.rule != hit.rule) continue;
            if (hit.line >= allow.line && hit.line <= allow.line + 2) {
                // Reason-less allows do not suppress; they are flagged below.
                if (allow.reason.empty()) continue;
                allow_used[a] = true;
                suppressed = true;
            }
        }
        if (!suppressed) {
            out.push_back({file.display_path, hit.line, hit.rule, hit.message});
        }
    }

    const auto known_rule = [](const std::string& id) {
        for (const Rule& rule : all_rules()) {
            if (id == rule.id) return true;
        }
        return false;
    };
    // Allow hygiene only makes sense when the full registry ran: under a
    // filter, an allow for an unselected rule genuinely suppresses nothing.
    for (std::size_t a = 0; only.empty() && a < file.allows.size(); ++a) {
        const Allow& allow = file.allows[a];
        if (allow.malformed) {
            out.push_back({file.display_path, allow.line, "allow-syntax",
                           "malformed LINT-ALLOW; expected LINT-ALLOW(<rule>): <reason>"});
        } else if (!known_rule(allow.rule)) {
            out.push_back({file.display_path, allow.line, "allow-syntax",
                           "LINT-ALLOW names unknown rule '" + allow.rule + "'"});
        } else if (allow.reason.empty()) {
            out.push_back({file.display_path, allow.line, "allow-syntax",
                           "LINT-ALLOW(" + allow.rule + ") must carry a reason"});
        } else if (!allow_used[a] && ran.count(allow.rule) > 0) {
            out.push_back({file.display_path, allow.line, "allow-syntax",
                           "LINT-ALLOW(" + allow.rule +
                               ") suppresses nothing; remove the stale annotation"});
        }
    }

    std::stable_sort(out.begin(), out.end(), [](const Diagnostic& x, const Diagnostic& y) {
        if (x.path != y.path) return x.path < y.path;
        return x.line < y.line;
    });
}

}  // namespace girglint
