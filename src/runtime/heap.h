// Guest heap: handle-indexed objects with a mark-sweep collector. Handles stay
// stable across collections (the table is a free-list, not compacted), which
// keeps interpreter frames and native code simple.
#ifndef SRC_RUNTIME_HEAP_H_
#define SRC_RUNTIME_HEAP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/runtime/value.h"
#include "src/support/result.h"

namespace dvm {

struct HeapObject {
  enum class Kind : uint8_t { kFree, kInstance, kIntArray, kLongArray, kRefArray, kString };

  Kind kind = Kind::kFree;
  // Class name for instances; array descriptor ("[I", "[Lfoo/Bar;") for arrays;
  // "java/lang/String" for strings.
  std::string class_name;
  // Interned class_name — the monomorphic inline caches compare this id
  // instead of the string bytes.
  uint32_t class_sym = 0;
  std::vector<Value> fields;     // kInstance: slot-indexed instance fields
  std::vector<int32_t> ints;     // kIntArray
  std::vector<int64_t> longs;    // kLongArray
  std::vector<ObjRef> refs;      // kRefArray
  std::string str;               // kString payload
  bool marked = false;

  size_t SizeBytes() const;
  // Element count of an array, -1 for any other kind.
  int32_t ArrayLength() const {
    switch (kind) {
      case Kind::kIntArray:
        return static_cast<int32_t>(ints.size());
      case Kind::kLongArray:
        return static_cast<int32_t>(longs.size());
      case Kind::kRefArray:
        return static_cast<int32_t>(refs.size());
      default:
        return -1;
    }
  }
};

class Heap {
 public:
  struct Stats {
    uint64_t allocations = 0;
    uint64_t allocated_bytes = 0;
    uint64_t gc_runs = 0;
    uint64_t objects_collected = 0;
  };

  explicit Heap(size_t capacity_bytes = 64 * 1024 * 1024) : capacity_bytes_(capacity_bytes) {}

  Result<ObjRef> AllocInstance(const std::string& class_name, size_t field_count);
  // Fast path: fields copied from a typed default template built at class link
  // time (no per-allocation descriptor parsing), class symbol precomputed.
  Result<ObjRef> AllocInstance(const std::string& class_name, uint32_t class_sym,
                               const std::vector<Value>& field_template);
  Result<ObjRef> AllocIntArray(int32_t length);
  Result<ObjRef> AllocLongArray(int32_t length);
  // `descriptor_sym` may be kNoSymbol, in which case the descriptor is
  // interned here (the quickened anewarray path passes its cached symbol).
  Result<ObjRef> AllocRefArray(const std::string& descriptor, int32_t length,
                               uint32_t descriptor_sym = 0);
  Result<ObjRef> AllocString(const std::string& value);

  // Returns nullptr for the null handle or a freed slot.
  HeapObject* Get(ObjRef ref) {
    if (ref == kNullRef || ref >= objects_.size() ||
        objects_[ref].kind == HeapObject::Kind::kFree) {
      return nullptr;
    }
    return &objects_[ref];
  }
  const HeapObject* Get(ObjRef ref) const { return const_cast<Heap*>(this)->Get(ref); }

  // Mark-sweep over the given roots. Statics and frames are supplied by the
  // machine; this class only owns the object graph.
  void Collect(const std::vector<ObjRef>& roots);

  size_t live_bytes() const { return live_bytes_; }
  size_t live_objects() const { return live_objects_; }
  size_t capacity_bytes() const { return capacity_bytes_; }
  const Stats& stats() const { return stats_; }

  // True when an allocation of `bytes` should trigger a collection first.
  bool NeedsGc(size_t bytes) const { return live_bytes_ + bytes > capacity_bytes_; }

 private:
  // kCapacity unless `bytes` more fit under the heap limit. Array allocators
  // call this before sizing the backing store so a huge verifier-legal length
  // (`newarray` with INT32_MAX) never drives a matching host allocation.
  Status Reserve(size_t bytes) const;
  Result<ObjRef> Place(HeapObject obj);
  void Mark(ObjRef ref);

  std::vector<HeapObject> objects_{1};  // slot 0 reserved for null
  std::vector<ObjRef> free_list_;
  size_t capacity_bytes_;
  size_t live_bytes_ = 0;
  size_t live_objects_ = 0;
  Stats stats_;
};

}  // namespace dvm

#endif  // SRC_RUNTIME_HEAP_H_
