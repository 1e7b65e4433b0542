#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/check.h"
#include "graph/graph.h"

namespace smallworld {

/// Per-query state keyed by vertex: open addressing with linear probing over
/// a power-of-two slot array that doubles at quarter load, so its size
/// follows the vertices one query touches, never n. Most lookups are misses
/// (a neighbor never touched), and at quarter load most misses end at their
/// home slot. Lookup and insert only — no erase, no iteration — so slot
/// order can never reach a routing decision.
template <typename T>
class VertexTable {
public:
    /// The value stored for v, or null when v was never inserted.
    [[nodiscard]] T* find(Vertex v) noexcept {
        if (slots_.empty()) return nullptr;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = home(v);; i = (i + 1) & mask) {
            if (slots_[i].key == v) return &slots_[i].value;
            if (slots_[i].key == kNoVertex) return nullptr;
        }
    }
    [[nodiscard]] const T* find(Vertex v) const noexcept {
        return const_cast<VertexTable*>(this)->find(v);
    }
    [[nodiscard]] bool contains(Vertex v) const noexcept { return find(v) != nullptr; }

    /// v's value, value-initialized when v is new (`second` is then true).
    /// Only inserting a new vertex invalidates earlier pointers.
    std::pair<T*, bool> insert(Vertex v) {
        GIRG_DCHECK(v != kNoVertex, "kNoVertex marks empty VertexTable slots");
        if (T* value = find(v)) return {value, false};
        if (4 * (size_ + 1) > slots_.size()) grow();
        ++size_;
        return {&place(v), true};
    }
    T& operator[](Vertex v) { return *insert(v).first; }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }

private:
    struct Slot {
        Vertex key = kNoVertex;
        T value{};
    };
    static constexpr std::size_t kMinSlots = 16;

    /// Fibonacci hashing: the top bits of v times 2^64/phi.
    [[nodiscard]] std::size_t home(Vertex v) const noexcept {
        return static_cast<std::size_t>((std::uint64_t{v} * 0x9E3779B97F4A7C15ULL) >> shift_);
    }

    /// The slot for absent v, claimed for it.
    T& place(Vertex v) noexcept {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = home(v);
        while (slots_[i].key != kNoVertex) i = (i + 1) & mask;
        slots_[i].key = v;
        return slots_[i].value;
    }

    void grow() {
        const std::size_t count = slots_.empty() ? kMinSlots : 2 * slots_.size();
        std::vector<Slot> previous = std::exchange(slots_, std::vector<Slot>(count));
        shift_ = 64 - std::countr_zero(count);
        for (Slot& slot : previous) {
            if (slot.key != kNoVertex) place(slot.key) = std::move(slot.value);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    int shift_ = 64;
};

}  // namespace smallworld
