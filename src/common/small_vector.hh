/**
 * @file
 * A vector whose first N elements live inside the object.
 *
 * The transaction hot path builds many short-lived, small collections:
 * a transaction's read and write sets, the per-shard lists a prepare
 * carries, a Retwis transaction's key shape. Each holds a handful of
 * entries, so with std::vector every one costs a heap allocation, often
 * several as it regrows. SmallVector keeps up to N elements inline and
 * moves them to one geometrically growing heap block only past N, so
 * the common case never allocates.
 *
 * Only the operations callers use are provided. Iterators are plain
 * pointers: any insertion invalidates them, as for std::vector, and so
 * does moving the container while its elements are inline.
 */

#ifndef COMMON_SMALL_VECTOR_HH
#define COMMON_SMALL_VECTOR_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <utility>

namespace common {

template <typename T, std::size_t N>
class SmallVector
{
    static_assert(N > 0, "SmallVector needs inline capacity");

  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    SmallVector() = default;

    SmallVector(const SmallVector &other)
    {
        reserve(other.size());
        for (const T &v : other)
            push_back(v);
    }

    SmallVector(SmallVector &&other) noexcept { takeFrom(other); }

    template <std::forward_iterator It>
    SmallVector(It first, It last)
    {
        reserve(static_cast<std::size_t>(std::distance(first, last)));
        for (; first != last; ++first)
            push_back(*first);
    }

    SmallVector &
    operator=(const SmallVector &other)
    {
        if (this != &other) {
            clear();
            reserve(other.size());
            for (const T &v : other)
                push_back(v);
        }
        return *this;
    }

    SmallVector &
    operator=(SmallVector &&other) noexcept
    {
        if (this != &other) {
            clear();
            release();
            takeFrom(other);
        }
        return *this;
    }

    ~SmallVector()
    {
        clear();
        release();
    }

    iterator begin() { return data_; }
    iterator end() { return data_ + size_; }
    const_iterator begin() const { return data_; }
    const_iterator end() const { return data_ + size_; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** True while the elements live inside the object (no heap block). */
    bool isInline() const { return data_ == inlineData(); }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    void
    reserve(std::size_t n)
    {
        if (n > cap_)
            grow(n);
    }

    void push_back(const T &v) { emplace_back(v); }
    void push_back(T &&v) { emplace_back(std::move(v)); }

    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (size_ == cap_)
            grow(2 * static_cast<std::size_t>(cap_));
        T *slot = ::new (static_cast<void *>(data_ + size_))
            T(std::forward<Args>(args)...);
        ++size_;
        return *slot;
    }

    /** Insert @p v before @p pos; returns the inserted element. */
    iterator
    insert(const_iterator pos, T &&v)
    {
        const auto at = static_cast<std::size_t>(pos - data_);
        emplace_back(std::move(v));
        std::rotate(data_ + at, data_ + size_ - 1, data_ + size_);
        return data_ + at;
    }

    void
    clear()
    {
        std::destroy(begin(), end());
        size_ = 0;
    }

  private:
    T *inlineData() { return reinterpret_cast<T *>(inline_); }
    const T *
    inlineData() const
    {
        return reinterpret_cast<const T *>(inline_);
    }

    void
    grow(std::size_t cap)
    {
        T *fresh = static_cast<T *>(::operator new(cap * sizeof(T)));
        std::uninitialized_move(begin(), end(), fresh);
        std::destroy(begin(), end());
        release();
        data_ = fresh;
        cap_ = static_cast<std::uint32_t>(cap);
    }

    /** Free the heap block, if any, and point back at inline storage.
     *  The elements must already be destroyed or moved out. */
    void
    release()
    {
        if (!isInline())
            ::operator delete(data_);
        data_ = inlineData();
        cap_ = N;
    }

    /** Adopt @p other's elements; this one is empty and inline. */
    void
    takeFrom(SmallVector &other)
    {
        if (other.isInline()) {
            std::uninitialized_move(other.begin(), other.end(), data_);
            size_ = other.size_;
            other.clear();
            return;
        }
        data_ = other.data_;
        size_ = other.size_;
        cap_ = other.cap_;
        other.data_ = other.inlineData();
        other.size_ = 0;
        other.cap_ = N;
    }

    T *data_ = inlineData();
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = N;
    alignas(T) unsigned char inline_[N * sizeof(T)];
};

/**
 * Map from integer-like keys to values, kept sorted in a SmallVector:
 * iteration visits keys in ascending order, as std::map does, and
 * lookups binary-search. For maps of a few entries that live briefly
 * (a transaction's read and write sets), with no allocation up to N.
 */
template <typename K, typename V, std::size_t N>
class SmallMap
{
  public:
    using value_type = std::pair<K, V>;
    using iterator = value_type *;
    using const_iterator = const value_type *;

    iterator begin() { return items_.begin(); }
    iterator end() { return items_.end(); }
    const_iterator begin() const { return items_.begin(); }
    const_iterator end() const { return items_.end(); }

    std::size_t size() const { return items_.size(); }
    bool empty() const { return items_.empty(); }
    bool isInline() const { return items_.isInline(); }

    iterator
    find(const K &key)
    {
        iterator it = lowerBound(key);
        return it != end() && it->first == key ? it : end();
    }

    /** The value for @p key, default-constructed on first use. */
    V &
    operator[](const K &key)
    {
        iterator it = lowerBound(key);
        if (it == end() || it->first != key)
            it = items_.insert(it, value_type(key, V{}));
        return it->second;
    }

    void clear() { items_.clear(); }

  private:
    iterator
    lowerBound(const K &key)
    {
        return std::lower_bound(
            begin(), end(), key,
            [](const value_type &item, const K &k) { return item.first < k; });
    }

    SmallVector<value_type, N> items_;
};

} // namespace common

#endif // COMMON_SMALL_VECTOR_HH
