// Generic freelist object pool with RAII checkout handles.
//
// The steady-state packet path must not touch the global allocator (see
// docs/MEMORY.md): every shard owns pools for the objects it churns per
// packet, so hot-path acquire and release are a mutex-guarded freelist
// pop/push that recycle the object's heap capacity (vector buffers, map
// nodes) instead of freeing it.
//
// Shape follows the terichdb DbContextObjCache pattern: checkout returns an
// RAII Handle; destroying the Handle scrubs the object and returns it to the
// pool. Two hard-won rules are baked in:
//
//  * Retained memory is bounded by TOTAL BYTES, never by object count (the
//    PR 7 ladder bucket-pool ratchet lesson: a count bound lets a few huge
//    buffers pin unbounded memory). Oversized objects are freed on return,
//    and returns beyond `max_retained_bytes` are freed rather than pooled.
//  * Handles may outlive the pool facade and may be released from another
//    thread: the freelist lives in a shared Core kept alive by every
//    outstanding Handle, and returns take the owning pool's mutex. Pool
//    traffic never feeds simulation values, so cross-thread returns cannot
//    perturb determinism -- only which freelist a buffer sleeps in.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace jqos::common {

// How many heap bytes an object retains between checkouts, and how to scrub
// it for the next user. The primary template suits types without owned heap
// storage; std::vector gets capacity-aware accounting so byte-bounded
// trimming sees the real retained footprint.
template <typename T>
struct ObjPoolTraits {
  static std::size_t bytes_of(const T&) { return sizeof(T); }
  static void reset(T&) {}
};

template <typename U>
struct ObjPoolTraits<std::vector<U>> {
  static std::size_t bytes_of(const std::vector<U>& v) {
    return sizeof(v) + v.capacity() * sizeof(U);
  }
  static void reset(std::vector<U>& v) { v.clear(); }
};

template <typename T>
class ObjPool {
 public:
  struct Limits {
    std::size_t max_retained_bytes = 4u << 20;
    // Per-object cap: an object whose retained capacity outgrew this is
    // freed on return instead of pooled (one pathological burst must not
    // permanently fatten every pooled buffer).
    std::size_t max_object_bytes = 1u << 20;
  };

 private:
  struct Core {
    explicit Core(Limits l) : limits(l) {}
    ~Core() {
      for (T* p : free_list) delete p;
    }

    T* take() {
      T* p = nullptr;
      {
        std::lock_guard<std::mutex> lk(mu);
        ++outstanding;
        high_water = std::max(high_water, outstanding);
        if (!free_list.empty()) {
          p = free_list.back();
          free_list.pop_back();
          pooled_bytes -= ObjPoolTraits<T>::bytes_of(*p);
          ++reused;
        } else {
          ++fresh;
        }
      }
      return p ? p : new T();
    }

    // Safe from any thread; see the cross-thread rule in the header comment.
    void give(T* obj) {
      ObjPoolTraits<T>::reset(*obj);
      const std::size_t b = ObjPoolTraits<T>::bytes_of(*obj);
      {
        std::lock_guard<std::mutex> lk(mu);
        --outstanding;
        if (b <= limits.max_object_bytes &&
            pooled_bytes + b <= limits.max_retained_bytes) {
          pooled_bytes += b;
          free_list.push_back(obj);
          return;
        }
      }
      delete obj;
    }

    mutable std::mutex mu;
    Limits limits;
    std::vector<T*> free_list;
    std::size_t pooled_bytes = 0;  // bytes retained by free_list entries
    std::size_t outstanding = 0;   // handles currently checked out
    std::size_t high_water = 0;    // max simultaneous outstanding
    std::uint64_t reused = 0;      // freelist hits
    std::uint64_t fresh = 0;       // global-allocator constructions
  };

 public:
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& o) noexcept : core_(std::move(o.core_)), obj_(o.obj_) {
      o.obj_ = nullptr;
    }
    Handle& operator=(Handle&& o) noexcept {
      if (this != &o) {
        release();
        core_ = std::move(o.core_);
        obj_ = o.obj_;
        o.obj_ = nullptr;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { release(); }

    T& operator*() const { return *obj_; }
    T* operator->() const { return obj_; }
    T* get() const { return obj_; }
    explicit operator bool() const { return obj_ != nullptr; }

    // Returns the object to its pool now (also runs on destruction).
    void release() {
      if (!obj_) return;
      core_->give(obj_);
      obj_ = nullptr;
      core_.reset();
    }

   private:
    friend class ObjPool;
    Handle(std::shared_ptr<Core> core, T* obj)
        : core_(std::move(core)), obj_(obj) {}

    std::shared_ptr<Core> core_;
    T* obj_ = nullptr;
  };

  explicit ObjPool(Limits limits = {})
      : core_(std::make_shared<Core>(limits)) {}

  Handle acquire() {
    T* p = core_->take();
    return Handle(core_, p);
  }

  // Frees everything currently pooled (outstanding handles are unaffected).
  void trim() {
    std::vector<T*> victims;
    {
      std::lock_guard<std::mutex> lk(core_->mu);
      victims.swap(core_->free_list);
      core_->pooled_bytes = 0;
    }
    for (T* p : victims) delete p;
  }

  std::size_t pooled_bytes() const {
    std::lock_guard<std::mutex> lk(core_->mu);
    return core_->pooled_bytes;
  }
  std::size_t pooled_count() const {
    std::lock_guard<std::mutex> lk(core_->mu);
    return core_->free_list.size();
  }
  std::size_t outstanding() const {
    std::lock_guard<std::mutex> lk(core_->mu);
    return core_->outstanding;
  }
  std::size_t high_water() const {
    std::lock_guard<std::mutex> lk(core_->mu);
    return core_->high_water;
  }
  std::uint64_t reused() const {
    std::lock_guard<std::mutex> lk(core_->mu);
    return core_->reused;
  }
  std::uint64_t fresh() const {
    std::lock_guard<std::mutex> lk(core_->mu);
    return core_->fresh;
  }

 private:
  std::shared_ptr<Core> core_;
};

}  // namespace jqos::common
