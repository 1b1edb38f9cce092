// The fixed reference task that every timed benchmark operation is
// divided by.
//
// The benchmark host changes speed under the benchmark's feet: on the
// host these figures were taken on, one whole-program solve took about
// 55 ms in one state and 90 ms in the other, switching every few
// seconds. Measured side by side, pure arithmetic and pointer chasing
// over long-lived memory hardly changed between the states; allocating,
// touching and freeing fresh memory slowed by the same factor as the
// engine. So the task does the engine's kinds of work on memory it
// allocates anew each time: small heap objects (24-64 bytes, about
// 2 MB), linked in a shuffled order and chased, and hash probes into a
// freshly allocated open-addressed table. Reporting
// (operation time / adjacent reference time) × kNominalMs cancels most
// of the drift (README.md has the figures). The task never changes, and
// its shuffle comes from a fixed seed, not the workload seed.
#ifndef HILOG_PERFBENCH_CALIB_H_
#define HILOG_PERFBENCH_CALIB_H_

#include <chrono>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace hlbench {

class ReferenceTask {
 public:
  /// Calibrated times are expressed as if every reference run had taken
  /// exactly this long (about its median on the host above).
  static constexpr double kNominalMs = 3.5;

  ReferenceTask() : order_(kNodes) {
    uint64_t s = 0x5eed5eed5eedull;
    for (uint32_t i = 0; i < kNodes; ++i) order_[i] = i;
    for (uint32_t i = kNodes - 1; i > 0; --i) {
      s += 0x9e3779b97f4a7c15ull;
      uint64_t z = s;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      std::swap(order_[i], order_[(z ^ (z >> 31)) % i]);
    }
  }

  /// Runs the task once; returns its wall time in milliseconds.
  double RunMs() {
    struct Node {
      Node* next;
      uint64_t key;
    };
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<Node*> nodes(kNodes);
    for (uint32_t i = 0; i < kNodes; ++i) {
      void* raw = ::operator new(sizeof(Node) + 8 + i % 40);
      nodes[i] = new (raw) Node{nullptr, (i + 1) * 0x9e3779b97f4a7c15ull};
    }
    for (uint32_t i = 0; i + 1 < kNodes; ++i) {
      nodes[order_[i]]->next = nodes[order_[i + 1]];
    }
    std::vector<uint64_t> table(kSlots, 0);
    for (Node* n = nodes[order_[0]]; n != nullptr; n = n->next) {
      uint32_t slot = static_cast<uint32_t>(n->key >> 17) & (kSlots - 1);
      while (table[slot] != 0) slot = (slot + 1) & (kSlots - 1);
      table[slot] = n->key;
    }
    uint64_t hits = 0;
    for (uint32_t i = 0; i < kNodes; ++i) {
      const uint64_t key = nodes[i]->key + (i % 2);  // Half miss.
      uint32_t slot = static_cast<uint32_t>(key >> 17) & (kSlots - 1);
      while (table[slot] != 0 && table[slot] != key) {
        slot = (slot + 1) & (kSlots - 1);
      }
      hits += table[slot] == key;
    }
    for (Node* n : nodes) ::operator delete(n);
    sink_ += hits;
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  }

  /// The hash hits of every run so far; reading it keeps the task's work
  /// from being optimized away.
  uint64_t sink() const { return sink_; }

 private:
  static constexpr uint32_t kNodes = 40000;
  static constexpr uint32_t kSlots = 1u << 16;

  std::vector<uint32_t> order_;
  uint64_t sink_ = 0;
};

}  // namespace hlbench

#endif  // HILOG_PERFBENCH_CALIB_H_
