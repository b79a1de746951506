// Append-only arena of contiguous runs with stable addresses.
//
// The server keeps every submitted query's item set, and every scan answer's
// values, for its whole lifetime: the Query objects that view them live as
// long as the server (StableVector), so nothing is ever freed early and a
// per-run heap block would buy nothing but an allocation on the submission
// path. ChunkArena hands out runs carved from kChunkSize-element chunks: a
// run never straddles two chunks and never moves, and a run that does not
// fit the current chunk's tail opens a new chunk (the tail stays unused).
// A run longer than a chunk gets a chunk of its own size.
//
// So copying a run allocates only when it opens a chunk: once per
// kChunkSize elements for runs of ordinary length.

#ifndef WEBDB_UTIL_CHUNK_ARENA_H_
#define WEBDB_UTIL_CHUNK_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace webdb {

template <typename T, size_t kChunkSize = size_t{1} << 16>
class ChunkArena {
 public:
  ChunkArena() = default;

  ChunkArena(const ChunkArena&) = delete;
  ChunkArena& operator=(const ChunkArena&) = delete;

  // A writable run of `n` elements (default-initialized), valid for the
  // arena's lifetime. n == 0 gives an empty span and allocates nothing.
  std::span<T> Allocate(size_t n) {
    if (n == 0) return {};
    if (n > left_) {
      const size_t size = std::max(n, kChunkSize);
      chunks_.push_back(std::make_unique_for_overwrite<T[]>(size));
      next_ = chunks_.back().get();
      left_ = size;
    }
    const std::span<T> run(next_, n);
    next_ += n;
    left_ -= n;
    return run;
  }

  // Copies `values` into a fresh run and returns a view of the copy.
  std::span<const T> Copy(std::span<const T> values) {
    const std::span<T> run = Allocate(values.size());
    std::copy(values.begin(), values.end(), run.begin());
    return run;
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  T* next_ = nullptr;
  size_t left_ = 0;
};

}  // namespace webdb

#endif  // WEBDB_UTIL_CHUNK_ARENA_H_
