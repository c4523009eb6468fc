/**
 * @file
 * InlineFunction: a move-only, type-erased callable with inline
 * storage and no heap fallback. The event kernel stores its callbacks
 * (`InlineFunction<void(), N>`) in pooled event nodes; keeping the
 * capture inside the node instead of behind a std::function heap cell
 * is what makes schedule()/step() allocation-free at steady state.
 * Hot-path continuations (counter-fetch waiters, Merkle-walk
 * resumptions) use other signatures for the same reason, and an
 * oversized capture fails the build instead of silently regressing.
 */

#ifndef OBFUSMEM_SIM_INLINE_FUNCTION_HH
#define OBFUSMEM_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace obfusmem {

template <typename Sig, std::size_t Capacity>
class InlineFunction;

/**
 * Like std::function<R(Args...)>, but the capture lives in `Capacity`
 * bytes of inline storage — a larger capture is a compile error, not
 * an allocation. Arguments are forwarded by value/move exactly as
 * declared in the signature.
 */
template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    static constexpr std::size_t capacity = Capacity;

    InlineFunction() = default;

    /** Wrap any callable of matching signature that fits inline. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction>>>
    InlineFunction(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<R, Fn &, Args...>,
                      "InlineFunction target signature mismatch");
        static_assert(sizeof(Fn) <= Capacity,
                      "capture exceeds InlineFunction storage; shrink "
                      "the capture (move large objects into a pool and "
                      "capture the handle) or raise the capacity");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned callable capture");
        ::new (static_cast<void *>(storage)) Fn(std::forward<F>(f));
        vt = vtableFor<Fn>();
    }

    InlineFunction(InlineFunction &&other) noexcept : vt(other.vt)
    {
        if (vt) {
            vt->relocate(storage, other.storage);
            other.vt = nullptr;
        }
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            vt = other.vt;
            if (vt) {
                vt->relocate(storage, other.storage);
                other.vt = nullptr;
            }
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    /** Destroy the held callable (if any); leaves *this empty. */
    void
    reset()
    {
        if (vt) {
            vt->destroy(storage);
            vt = nullptr;
        }
    }

    explicit operator bool() const { return vt != nullptr; }

    /** Invoke the held callable. Precondition: non-empty. */
    R
    operator()(Args... args)
    {
        return vt->invoke(storage, std::forward<Args>(args)...);
    }

  private:
    struct VTable
    {
        R (*invoke)(void *self, Args &&...args);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *self);
    };

    template <typename Fn>
    static const VTable *
    vtableFor()
    {
        static const VTable table = {
            [](void *self, Args &&...args) -> R {
                return (*std::launder(reinterpret_cast<Fn *>(self)))(
                    std::forward<Args>(args)...);
            },
            [](void *dst, void *src) {
                Fn *from = std::launder(reinterpret_cast<Fn *>(src));
                ::new (dst) Fn(std::move(*from));
                from->~Fn();
            },
            [](void *self) {
                std::launder(reinterpret_cast<Fn *>(self))->~Fn();
            },
        };
        return &table;
    }

    alignas(std::max_align_t) unsigned char storage[Capacity];
    const VTable *vt = nullptr;
};

} // namespace obfusmem

#endif // OBFUSMEM_SIM_INLINE_FUNCTION_HH
