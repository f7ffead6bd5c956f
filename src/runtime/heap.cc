#include "src/runtime/heap.h"

#include <deque>

#include "src/support/interner.h"

namespace dvm {
namespace {

uint32_t IntArraySym() {
  static const uint32_t sym = InternSymbol("[I");
  return sym;
}

uint32_t LongArraySym() {
  static const uint32_t sym = InternSymbol("[J");
  return sym;
}

uint32_t StringSym() {
  static const uint32_t sym = InternSymbol("java/lang/String");
  return sym;
}

}  // namespace

size_t HeapObject::SizeBytes() const {
  size_t base = 32;
  switch (kind) {
    case Kind::kFree:
      return 0;
    case Kind::kInstance:
      return base + fields.size() * 8;
    case Kind::kIntArray:
      return base + ints.size() * 4;
    case Kind::kLongArray:
      return base + longs.size() * 8;
    case Kind::kRefArray:
      return base + refs.size() * 4;
    case Kind::kString:
      return base + str.size();
  }
  return base;
}

Status Heap::Reserve(size_t bytes) const {
  if (live_bytes_ + bytes > capacity_bytes_) {
    return Error{ErrorCode::kCapacity, "guest heap exhausted"};
  }
  return Status::Ok();
}

Result<ObjRef> Heap::Place(HeapObject obj) {
  size_t bytes = obj.SizeBytes();
  DVM_RETURN_IF_ERROR(Reserve(bytes));
  stats_.allocations++;
  stats_.allocated_bytes += bytes;
  live_bytes_ += bytes;
  live_objects_++;

  if (!free_list_.empty()) {
    ObjRef ref = free_list_.back();
    free_list_.pop_back();
    objects_[ref] = std::move(obj);
    return ref;
  }
  objects_.push_back(std::move(obj));
  return static_cast<ObjRef>(objects_.size() - 1);
}

Result<ObjRef> Heap::AllocInstance(const std::string& class_name, size_t field_count) {
  HeapObject obj;
  obj.kind = HeapObject::Kind::kInstance;
  obj.class_name = class_name;
  obj.class_sym = InternSymbol(class_name);
  obj.fields.assign(field_count, Value::Null());
  return Place(std::move(obj));
}

Result<ObjRef> Heap::AllocInstance(const std::string& class_name, uint32_t class_sym,
                                   const std::vector<Value>& field_template) {
  HeapObject obj;
  obj.kind = HeapObject::Kind::kInstance;
  obj.class_name = class_name;
  obj.class_sym = class_sym;
  obj.fields = field_template;
  return Place(std::move(obj));
}

// The array allocators check guest-heap capacity BEFORE building the backing
// store: `ldc 2147483647; newarray` is verifier-legal, and sizing the vector
// first would physically allocate gigabytes of host memory only to have
// Place() reject the object afterwards.
Result<ObjRef> Heap::AllocIntArray(int32_t length) {
  if (length < 0) {
    return Error{ErrorCode::kRuntimeError, "negative array size"};
  }
  DVM_RETURN_IF_ERROR(Reserve(32 + static_cast<size_t>(length) * 4));
  HeapObject obj;
  obj.kind = HeapObject::Kind::kIntArray;
  obj.class_name = "[I";
  obj.class_sym = IntArraySym();
  obj.ints.assign(static_cast<size_t>(length), 0);
  return Place(std::move(obj));
}

Result<ObjRef> Heap::AllocLongArray(int32_t length) {
  if (length < 0) {
    return Error{ErrorCode::kRuntimeError, "negative array size"};
  }
  DVM_RETURN_IF_ERROR(Reserve(32 + static_cast<size_t>(length) * 8));
  HeapObject obj;
  obj.kind = HeapObject::Kind::kLongArray;
  obj.class_name = "[J";
  obj.class_sym = LongArraySym();
  obj.longs.assign(static_cast<size_t>(length), 0);
  return Place(std::move(obj));
}

Result<ObjRef> Heap::AllocRefArray(const std::string& descriptor, int32_t length,
                                   uint32_t descriptor_sym) {
  if (length < 0) {
    return Error{ErrorCode::kRuntimeError, "negative array size"};
  }
  DVM_RETURN_IF_ERROR(Reserve(32 + static_cast<size_t>(length) * 4));
  HeapObject obj;
  obj.kind = HeapObject::Kind::kRefArray;
  obj.class_name = descriptor;
  obj.class_sym = descriptor_sym != kNoSymbol ? descriptor_sym : InternSymbol(descriptor);
  obj.refs.assign(static_cast<size_t>(length), kNullRef);
  return Place(std::move(obj));
}

Result<ObjRef> Heap::AllocString(const std::string& value) {
  HeapObject obj;
  obj.kind = HeapObject::Kind::kString;
  obj.class_name = "java/lang/String";
  obj.class_sym = StringSym();
  obj.str = value;
  return Place(std::move(obj));
}

void Heap::Mark(ObjRef root) {
  std::deque<ObjRef> work{root};
  while (!work.empty()) {
    ObjRef ref = work.front();
    work.pop_front();
    HeapObject* obj = Get(ref);
    if (obj == nullptr || obj->marked) {
      continue;
    }
    obj->marked = true;
    if (obj->kind == HeapObject::Kind::kInstance) {
      for (const Value& v : obj->fields) {
        if (v.kind == Value::Kind::kRef && !v.IsNullRef()) {
          work.push_back(v.AsRef());
        }
      }
    } else if (obj->kind == HeapObject::Kind::kRefArray) {
      for (ObjRef element : obj->refs) {
        if (element != kNullRef) {
          work.push_back(element);
        }
      }
    }
  }
}

void Heap::Collect(const std::vector<ObjRef>& roots) {
  stats_.gc_runs++;
  for (ObjRef root : roots) {
    Mark(root);
  }
  for (ObjRef ref = 1; ref < objects_.size(); ref++) {
    HeapObject& obj = objects_[ref];
    if (obj.kind == HeapObject::Kind::kFree) {
      continue;
    }
    if (obj.marked) {
      obj.marked = false;
      continue;
    }
    live_bytes_ -= obj.SizeBytes();
    live_objects_--;
    stats_.objects_collected++;
    obj = HeapObject{};
    free_list_.push_back(ref);
  }
}

}  // namespace dvm
