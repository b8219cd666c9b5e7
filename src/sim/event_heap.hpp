// Sift steps of an indexed binary min-heap of event keys, in firing order:
// time, then sequence number. Each key knows where it sits: every write of
// a key to a slot goes through the caller's `moved(key, pos)`, which
// records the new position, so an entry can be re-keyed or removed in
// place. Scheduler's event queue and TransferManager's completion heap both
// keep their keys this way, so the manager orders its pending completions
// exactly as the scheduler would order their events.
#pragma once

#include <cstddef>
#include <vector>

namespace eona::sim {

/// Firing order of two event keys (anything with `when` and `seq`).
template <typename Key>
[[nodiscard]] bool fires_before(const Key& a, const Key& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

/// Put `key` at `pos` or above, moving later parents down.
template <typename Key, typename Moved>
void heap_sift_up(std::vector<Key>& heap, std::size_t pos, Key key,
                  Moved moved) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!fires_before(key, heap[parent])) break;
    heap[pos] = heap[parent];
    moved(heap[pos], pos);
    pos = parent;
  }
  heap[pos] = key;
  moved(key, pos);
}

/// Put `key` at `pos` or below, moving earlier children up.
template <typename Key, typename Moved>
void heap_sift_down(std::vector<Key>& heap, std::size_t pos, Key key,
                    Moved moved) {
  const std::size_t n = heap.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && fires_before(heap[child + 1], heap[child])) ++child;
    if (!fires_before(heap[child], key)) break;
    heap[pos] = heap[child];
    moved(heap[pos], pos);
    pos = child;
  }
  heap[pos] = key;
  moved(key, pos);
}

/// Give slot `pos` the new `key` and restore heap order from there.
template <typename Key, typename Moved>
void heap_rekey(std::vector<Key>& heap, std::size_t pos, Key key,
                Moved moved) {
  if (pos > 0 && fires_before(key, heap[(pos - 1) / 2]))
    heap_sift_up(heap, pos, key, moved);
  else
    heap_sift_down(heap, pos, key, moved);
}

}  // namespace eona::sim
