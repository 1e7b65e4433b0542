#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/check.h"

namespace smallworld::e2e {

std::int64_t now_ns() {
    // LINT-ALLOW(nondeterminism): the benchmark's one clock; no output depends on it
    static const auto epoch = std::chrono::steady_clock::now();
    // LINT-ALLOW(nondeterminism): the benchmark's one clock; no output depends on it
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch).count();
}

SpanRef TraceLane::open(const char* name, std::int64_t req) {
    const SpanRef ref{id_, static_cast<std::int32_t>(spans_.size())};
    spans_.push_back({name, now_ns(), 0, innermost(), req});
    open_.push_back(ref.index);
    return ref;
}

void TraceLane::close(SpanRef span) {
    GIRG_CHECK(!open_.empty() && open_.back() == span.index && span.lane == id_,
               "trace spans must close innermost first");
    spans_[static_cast<std::size_t>(span.index)].end_ns = now_ns();
    open_.pop_back();
}

SpanRef TraceLane::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                       SpanRef parent, std::int64_t req) {
    const SpanRef ref{id_, static_cast<std::int32_t>(spans_.size())};
    spans_.push_back({name, start_ns, end_ns, parent, req});
    return ref;
}

void TraceLane::set_end(SpanRef span, std::int64_t end_ns) {
    GIRG_CHECK(span.lane == id_, "set_end on a span of another lane");
    spans_.at(static_cast<std::size_t>(span.index)).end_ns = end_ns;
}

SpanRef TraceLane::innermost() const noexcept {
    return open_.empty() ? SpanRef{} : SpanRef{id_, open_.back()};
}

Tracer::Tracer(std::size_t lanes) : shared_(static_cast<std::int32_t>(lanes)) {
    lanes_.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) lanes_.emplace_back(static_cast<std::int32_t>(i));
}

void Tracer::add_shared(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                        SpanRef parent, std::int64_t req) {
    const MutexLock lock(shared_mutex_);
    (void)shared_.add(name, start_ns, end_ns, parent, req);
}

std::vector<Tracer::Flat> Tracer::flatten() const {
    const MutexLock lock(shared_mutex_);
    // Global index of a span = offset of its lane + its index in the lane;
    // the shared lane's id is lanes_.size(), so it sits last.
    std::vector<const TraceLane*> all;
    for (const TraceLane& lane : lanes_) all.push_back(&lane);
    all.push_back(&shared_);
    std::vector<std::size_t> offset(all.size() + 1, 0);
    for (std::size_t i = 0; i < all.size(); ++i) offset[i + 1] = offset[i] + all[i]->spans().size();

    std::vector<Flat> flat;
    flat.reserve(offset.back());
    std::vector<std::pair<std::size_t, std::size_t>> edges;  // (parent, child)
    for (std::size_t l = 0; l < all.size(); ++l) {
        for (const Span& span : all[l]->spans()) {
            const std::size_t id = flat.size();
            flat.push_back({&span, static_cast<std::int32_t>(l), 0.0});
            if (span.parent.lane >= 0) {
                const std::size_t parent = offset[static_cast<std::size_t>(span.parent.lane)] +
                                           static_cast<std::size_t>(span.parent.index);
                edges.emplace_back(parent, id);
            }
        }
    }
    std::sort(edges.begin(), edges.end(), [&flat](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first < b.first;
        return flat[a.second].span->start_ns < flat[b.second].span->start_ns;
    });

    // Self time: the span's duration minus the union of its children's
    // intervals (clipped to the span). Children of the serving factory run
    // concurrently on pool threads, so they may overlap each other.
    std::size_t e = 0;
    for (std::size_t id = 0; id < flat.size(); ++id) {
        const Span& span = *flat[id].span;
        std::int64_t covered = 0;
        std::int64_t cursor = span.start_ns;
        for (; e < edges.size() && edges[e].first == id; ++e) {
            const Span& child = *flat[edges[e].second].span;
            const std::int64_t lo = std::max(std::max(child.start_ns, cursor), span.start_ns);
            const std::int64_t hi = std::min(child.end_ns, span.end_ns);
            if (hi > lo) {
                covered += hi - lo;
                cursor = hi;
            }
        }
        flat[id].self_s = static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
    }
    return flat;
}

std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

std::map<std::string, SpanTotals> Tracer::by_name() const {
    std::map<std::string, SpanTotals> out;
    for (const Flat& f : flatten()) {
        SpanTotals& t = out[f.span->name];
        t.self_s += f.self_s;
        t.total_s += static_cast<double>(f.span->end_ns - f.span->start_ns) * 1e-9;
        ++t.count;
    }
    return out;
}

bool Tracer::write_chrome(const std::string& path, std::int64_t max_req) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    char line[512];
    for (const Flat& f : flatten()) {
        const Span& s = *f.span;
        if (s.req >= max_req) continue;
        std::snprintf(line, sizeof(line),
                      "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"req\": %lld, "
                      "\"self_us\": %.3f}}",
                      first ? "" : ",\n", s.name, layer_of(s.name).c_str(), f.lane,
                      static_cast<double>(s.start_ns) * 1e-3,
                      static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                      static_cast<long long>(s.req), f.self_s * 1e6);
        out << line;
        first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

}  // namespace smallworld::e2e
