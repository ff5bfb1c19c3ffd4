/**
 * @file
 * Functional backing store for the simulated physical address space.
 *
 * Data and the per-line UFO protection bits live side by side, exactly
 * as the paper's Appendix A describes (UFO bits travel with the data
 * through the whole hierarchy).  Storage is allocated lazily in 64 KiB
 * pages so tests and workloads can use a sparse address space.
 *
 * Host-side views sit beside the page map and change nothing it
 * reports: a two-level page-pointer table answers lookups below 4 GiB
 * (where every region of the simulated layout lives) without hashing;
 * an ordered set of the UFO-protected lines lets forEachUfoLine()
 * visit only those lines, in ascending order; and two change counters
 * (writes per page, UFO-bit updates) let a checker that reads a
 * region and the bits skip a re-check when neither moved.
 */

#ifndef UFOTM_MEM_SIM_MEMORY_HH
#define UFOTM_MEM_SIM_MEMORY_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>

#include "sim/types.hh"

namespace utm {

/** Sparse, paged, functional memory with per-line UFO bits. */
class SimMemory
{
  public:
    static constexpr unsigned kPageBits = 16;
    static constexpr std::uint64_t kPageSize = 1ull << kPageBits;
    static constexpr unsigned kLinesPerPage = kPageSize / kLineSize;

    /**
     * Read @p size bytes (1, 2, 4, or 8) at @p a, zero-extended.
     * The access must not cross a cache-line boundary.
     */
    std::uint64_t
    read(Addr a, unsigned size) const
    {
        // Inline fast path: an aligned word in a page below 4 GiB (the
        // otable walks and shadow reads of the per-step oracles).  It
        // cannot fail readChecked()'s size and line-crossing checks.
        const std::uint64_t idx = a >> kPageBits;
        if (size == 8 && (a & 7) == 0 && idx < kTablePages) {
            if (const Page *p = tablePage(idx)) {
                std::uint64_t v;
                std::memcpy(&v, p->data.data() + (a & (kPageSize - 1)), 8);
                return v;
            }
        }
        return readChecked(a, size);
    }

    /** Write the low @p size bytes of @p v at @p a. */
    void write(Addr a, std::uint64_t v, unsigned size);

    /** write() calls so far to the page holding @p a (0 while the
     *  page is not materialized). */
    std::uint64_t pageWrites(Addr a) const;

    /**
     * @name UFO protection bits, per cache line.
     * setUfoBits() is the only writer of the bits, and so the only
     * place the ordered line index and the change count move.
     * @{
     */
    UfoBits ufoBits(LineAddr line) const;
    void setUfoBits(LineAddr line, UfoBits bits);
    void addUfoBits(LineAddr line, UfoBits bits);
    /** setUfoBits() calls so far, whether or not the bits changed. */
    std::uint64_t ufoChanges() const { return ufoChanges_; }
    /** @} */

    /** True if any UFO bit is set anywhere in the page holding @p a.
     *  Used by the swap model's all-clear-page optimization. */
    bool pageHasUfoBits(Addr a) const;

    /** Number of lines with any UFO bit set. */
    std::size_t ufoLineCount() const { return ufoLines_.size(); }

    /** Has the page holding @p a been materialized (page-fault model)? */
    bool pageExists(Addr a) const;

    /** Materialize the page holding @p a (resolve a page fault). */
    void materializePage(Addr a);

    /** Number of pages materialized so far. */
    std::size_t pageCount() const { return pages_.size(); }

    /**
     * Invoke @p fn for every line with any UFO bit set, in ascending
     * line order; @p fn returns false to stop the walk early.  @p fn
     * must not call setUfoBits() (or addUfoBits()): changing the
     * index under the walk invalidates it.  Collect the lines first.
     */
    void forEachUfoLine(
        const std::function<bool(LineAddr, UfoBits)> &fn) const;

    /**
     * Invoke @p fn with the base address of every materialized page.
     * Enumeration order is unspecified (hash-map order) — callers
     * that need deterministic output must aggregate, not early-exit.
     */
    void forEachPage(const std::function<void(Addr)> &fn) const;

  private:
    struct Page
    {
        std::array<std::uint8_t, kPageSize> data{};
        /** Two bits per line: bit0 = fault-on-read, bit1 = f-o-write. */
        std::array<std::uint8_t, kLinesPerPage> ufo{};
        std::uint64_t writes = 0; ///< write() calls to this page.
    };

    /** @name Page-pointer table over the pages below 4 GiB.
     *  kTableLeaves top slots, each a lazily allocated leaf of
     *  kLeafPages pointers into pages_. @{ */
    static constexpr unsigned kLeafBits = 8;
    static constexpr std::uint64_t kLeafPages = 1ull << kLeafBits;
    static constexpr std::uint64_t kTablePages = 1ull << (32 - kPageBits);
    static constexpr std::uint64_t kTableLeaves = kTablePages / kLeafPages;
    using Leaf = std::array<Page *, kLeafPages>;
    /** @} */

    /** Page @p idx (below kTablePages), or nullptr. */
    Page *
    tablePage(std::uint64_t idx) const
    {
        const Leaf *leaf = table_[idx >> kLeafBits].get();
        return leaf ? (*leaf)[idx & (kLeafPages - 1)] : nullptr;
    }

    /** The page holding @p a, or nullptr if not materialized. */
    Page *findPage(Addr a) const;

    /** read() for any size and page, with both access checks. */
    std::uint64_t readChecked(Addr a, unsigned size) const;

    /** The page holding @p a, materialized on first use. */
    Page &pageFor(Addr a);

    /** Owns every page; the table and the order of forEachPage()
     *  are views over it. */
    std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
    std::array<std::unique_ptr<Leaf>, kTableLeaves> table_;
    /** Every line whose UFO slot is non-zero. */
    std::set<LineAddr> ufoLines_;
    std::uint64_t ufoChanges_ = 0;
};

} // namespace utm

#endif // UFOTM_MEM_SIM_MEMORY_HH
