/**
 * @file
 * A move-only, small-buffer-optimized `void()` callable for event
 * closures. The simulator schedules millions of short-lived lambdas
 * whose captures are a `this` pointer plus a node id, a tick, a
 * generation or a slot index; std::function's small-buffer window
 * (16 bytes on libstdc++) forces a heap allocation per event. This
 * type keeps kInlineSize bytes of in-object storage so those captures
 * never touch the allocator; larger captures transparently spill to
 * the heap. A Message (~144 bytes) does not fit, so the network parks
 * in-flight messages in a slot pool and its delivery closure captures
 * only {this, slot} (network.hh).
 */

#ifndef TT_SIM_SMALL_FUNCTION_HH
#define TT_SIM_SMALL_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tt
{

/**
 * Type-erased move-only `void()` callable with a large inline buffer.
 *
 * Dispatch goes through a static per-type vtable (invoke / relocate /
 * destroy) rather than a virtual base, so an engaged SmallFunction is
 * exactly the buffer plus one pointer and relocation of inline
 * targets is a move-construct + destroy pair (noexcept-move targets
 * only; throwing-move types go to the heap where relocation is a
 * pointer copy).
 */
class SmallFunction
{
  public:
    /** In-object storage for the simulator's event captures. */
    static constexpr std::size_t kInlineSize = 120;

    SmallFunction() = default;

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, SmallFunction> &&
                  std::is_invocable_r_v<void, D&>>>
    SmallFunction(F&& f)
    {
        construct<D>(std::forward<F>(f));
    }

    SmallFunction(SmallFunction&& o) noexcept { moveFrom(o); }

    SmallFunction&
    operator=(SmallFunction&& o) noexcept
    {
        if (this != &o) {
            destroy();
            moveFrom(o);
        }
        return *this;
    }

    SmallFunction(const SmallFunction&) = delete;
    SmallFunction& operator=(const SmallFunction&) = delete;

    ~SmallFunction() { destroy(); }

    explicit operator bool() const { return _vt != nullptr; }

    void
    operator()()
    {
        _vt->invoke(_buf);
    }

  private:
    struct VTable
    {
        void (*invoke)(void* storage);
        void (*relocate)(void* dst, void* src) noexcept;
        void (*destroy)(void* storage) noexcept;
    };

    template <typename D>
    static constexpr bool fitsInline =
        sizeof(D) <= kInlineSize &&
        alignof(D) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<D>;

    template <typename D>
    struct InlineOps
    {
        static void
        invoke(void* storage)
        {
            (*std::launder(reinterpret_cast<D*>(storage)))();
        }

        static void
        relocate(void* dst, void* src) noexcept
        {
            D* s = std::launder(reinterpret_cast<D*>(src));
            ::new (dst) D(std::move(*s));
            s->~D();
        }

        static void
        destroy(void* storage) noexcept
        {
            std::launder(reinterpret_cast<D*>(storage))->~D();
        }

        static constexpr VTable vt{invoke, relocate, destroy};
    };

    template <typename D>
    struct HeapOps
    {
        static D*&
        slot(void* storage)
        {
            return *std::launder(reinterpret_cast<D**>(storage));
        }

        static void invoke(void* storage) { (*slot(storage))(); }

        static void
        relocate(void* dst, void* src) noexcept
        {
            ::new (dst) (D*)(slot(src));
        }

        static void destroy(void* storage) noexcept { delete slot(storage); }

        static constexpr VTable vt{invoke, relocate, destroy};
    };

    template <typename D, typename F>
    void
    construct(F&& f)
    {
        if constexpr (fitsInline<D>) {
            ::new (static_cast<void*>(_buf)) D(std::forward<F>(f));
            _vt = &InlineOps<D>::vt;
        } else {
            ::new (static_cast<void*>(_buf)) (D*)(
                new D(std::forward<F>(f)));
            _vt = &HeapOps<D>::vt;
        }
    }

    void
    moveFrom(SmallFunction& o) noexcept
    {
        _vt = o._vt;
        if (_vt) {
            _vt->relocate(_buf, o._buf);
            o._vt = nullptr;
        }
    }

    void
    destroy() noexcept
    {
        if (_vt) {
            _vt->destroy(_buf);
            _vt = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char _buf[kInlineSize];
    const VTable* _vt = nullptr;
};

} // namespace tt

#endif // TT_SIM_SMALL_FUNCTION_HH
