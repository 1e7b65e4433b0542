#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/annotations.h"

namespace smallworld::e2e {

/// Nanoseconds on the steady clock since the first call in this process.
[[nodiscard]] std::int64_t now_ns();

/// Identifies a span: its lane and its index inside that lane.
struct SpanRef {
    std::int32_t lane = -1;
    std::int32_t index = -1;
};

/// One timed call into a layer. `name` is "<layer>.<call>" in static
/// storage (see layer_of). `req` is the request (query or batch) the span
/// serves, -1 for set-up spans.
struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    SpanRef parent;
    std::int64_t req = -1;
};

/// The layer of a span name: the part before the first dot.
[[nodiscard]] std::string layer_of(const std::string& name);

/// Self and total time of the spans sharing a name.
struct SpanTotals {
    double self_s = 0.0;
    double total_s = 0.0;
    std::size_t count = 0;
};

/// One thread's span buffer, kept in memory until the run ends. A lane is
/// not thread-safe: every client thread owns its own.
class TraceLane {
public:
    explicit TraceLane(std::int32_t id) : id_(id) {}

    /// Opens a span nested in the innermost open span of this lane.
    SpanRef open(const char* name, std::int64_t req = -1);
    /// Closes `span`, which must be the innermost open span.
    void close(SpanRef span);
    /// Appends a finished span under an explicit parent.
    SpanRef add(const char* name, std::int64_t start_ns, std::int64_t end_ns, SpanRef parent,
                std::int64_t req = -1);
    /// Moves the end of a span recorded earlier on this lane.
    void set_end(SpanRef span, std::int64_t end_ns);

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

private:
    [[nodiscard]] SpanRef innermost() const noexcept;

    std::int32_t id_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
};

/// All lanes of one traced run plus a locked lane for spans recorded on
/// pool threads the benchmark does not own (the serving factory's calls).
/// Aggregates cover every span; the Chrome trace file keeps the set-up and
/// batch spans plus the spans of the first `max_req` requests.
class Tracer {
public:
    explicit Tracer(std::size_t lanes);

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    [[nodiscard]] TraceLane& lane(std::size_t index) { return lanes_.at(index); }

    /// Thread-safe append to the shared lane.
    void add_shared(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                    SpanRef parent, std::int64_t req) GIRG_EXCLUDES(shared_mutex_);

    /// Self time (duration minus the part its children cover) and total
    /// time of every span, summed per span name.
    [[nodiscard]] std::map<std::string, SpanTotals> by_name() const GIRG_EXCLUDES(shared_mutex_);

    /// Writes Chrome trace-event JSON; false when the file cannot be written.
    [[nodiscard]] bool write_chrome(const std::string& path, std::int64_t max_req) const
        GIRG_EXCLUDES(shared_mutex_);

private:
    struct Flat {
        const Span* span;
        std::int32_t lane;
        double self_s;
    };
    [[nodiscard]] std::vector<Flat> flatten() const GIRG_EXCLUDES(shared_mutex_);

    std::vector<TraceLane> lanes_;
    mutable Mutex shared_mutex_;
    TraceLane shared_ GIRG_GUARDED_BY(shared_mutex_);
};

/// RAII span on an optional lane: with a null lane (an untraced run) it
/// records nothing and costs one branch.
class ScopedSpan {
public:
    ScopedSpan(TraceLane* lane, const char* name, std::int64_t req = -1)
        : lane_(lane), ref_(lane != nullptr ? lane->open(name, req) : SpanRef{}) {}
    ~ScopedSpan() {
        if (lane_ != nullptr) lane_->close(ref_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] SpanRef ref() const noexcept { return ref_; }

private:
    TraceLane* lane_;
    SpanRef ref_;
};

}  // namespace smallworld::e2e
