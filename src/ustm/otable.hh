/**
 * @file
 * Layout of the USTM ownership table (paper Figure 3).
 *
 * The otable lives in *simulated* memory so that every lookup is a
 * timed, coherent access — this is what makes HyTM's transactional
 * otable reads inflate hardware-transaction footprints (paper
 * Section 5) and gives USTM its honest barrier cost.
 *
 * Each entry is 32 bytes:
 *   word0: packed { used, lock, write-state, multi, hasChain,
 *                   owner id (6 bits), tag (line >> 6) }
 *   word1: owner bitmask (valid when the multi bit is set)
 *   word2: simulated address of the next chain node (0 = none)
 *   word3: padding
 *
 * Head entries form a direct-mapped array; aliasing lines chain
 * through nodes drawn from a per-thread pool.  All chain mutations
 * happen under the head entry's lock bit; the single-owner fast path
 * is a lone compare-and-swap on word0, as in the paper's Algorithm 1.
 */

#ifndef UFOTM_USTM_OTABLE_HH
#define UFOTM_USTM_OTABLE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace utm {

class Machine;
class ThreadContext;

/** Ownership-table layout helper and chain-node pool. */
class Otable
{
  public:
    static constexpr unsigned kEntryBytes = 32;

    /** @name word0 bit fields. @{ */
    static constexpr std::uint64_t kUsed = 1ull << 0;
    static constexpr std::uint64_t kLock = 1ull << 1;
    static constexpr std::uint64_t kWrite = 1ull << 2;
    static constexpr std::uint64_t kMulti = 1ull << 3;
    static constexpr std::uint64_t kHasChain = 1ull << 4;
    static constexpr unsigned kOwnerShift = 5;
    static constexpr std::uint64_t kOwnerMask = 0x3full << kOwnerShift;
    static constexpr unsigned kTagShift = 11;
    /** @} */

    /**
     * @param buckets    Number of head entries (power of two).
     * @param base       Simulated base address of the head array.
     * @param pool_nodes Chain-node pool size.
     */
    Otable(unsigned buckets, Addr base, unsigned pool_nodes = 4096);

    /** Materialize the table's pages (avoids page-fault noise). */
    void initialize(ThreadContext &init);

    /** @name Address computation. @{ */
    Addr bucketAddr(LineAddr line) const;
    unsigned bucketIndex(LineAddr line) const;
    Addr base() const { return base_; }
    unsigned buckets() const { return buckets_; }
    Addr end() const { return poolBase_ + poolNodes_ * kEntryBytes; }
    /** @} */

    /** @name word0 packing. @{ */
    static std::uint64_t tagOf(LineAddr line) { return line >> kLineBits; }

    static std::uint64_t
    pack(bool used, bool lock, bool write, bool multi, bool has_chain,
         ThreadId owner, std::uint64_t tag)
    {
        return (used ? kUsed : 0) | (lock ? kLock : 0) |
               (write ? kWrite : 0) | (multi ? kMulti : 0) |
               (has_chain ? kHasChain : 0) |
               (static_cast<std::uint64_t>(owner) << kOwnerShift) |
               (tag << kTagShift);
    }

    static bool used(std::uint64_t w0) { return w0 & kUsed; }
    static bool locked(std::uint64_t w0) { return w0 & kLock; }
    static bool writeState(std::uint64_t w0) { return w0 & kWrite; }
    static bool multi(std::uint64_t w0) { return w0 & kMulti; }
    static bool hasChain(std::uint64_t w0) { return w0 & kHasChain; }

    static ThreadId
    owner(std::uint64_t w0)
    {
        return static_cast<ThreadId>((w0 & kOwnerMask) >> kOwnerShift);
    }

    static std::uint64_t tag(std::uint64_t w0) { return w0 >> kTagShift; }
    /** @} */

    /** What one walk of a line's bucket found. */
    struct Entry
    {
        std::uint64_t head = 0; ///< The bucket head's word0.
        Addr addr = 0;          ///< The line's entry; 0 = none.
        std::uint64_t w0 = 0;   ///< The entry's word0.
    };

    /**
     * The bucket walk: load the head's word0 through @p load and,
     * unless the head holds @p line, follow its chain (the head's next
     * pointer, then each node's word0 and next pointer) up to the node
     * that does.
     * @p load(Addr) returns the 8-byte word there: a timed
     * ThreadContext::load for barriers and fault handlers, a
     * functional SimMemory::read for peeks.  With @p stop_at_lock a
     * row-locked head ends the walk.
     */
    template <typename Load>
    Entry
    find(LineAddr line, Load &&load, bool stop_at_lock = false) const
    {
        const Addr head = bucketAddr(line);
        const std::uint64_t t = tagOf(line);
        const std::uint64_t h0 = load(head);
        if (stop_at_lock && locked(h0))
            return {h0, 0, 0};
        if (used(h0) && tag(h0) == t)
            return {h0, head, h0};
        if (hasChain(h0)) {
            for (Addr node = load(head + 16); node != 0;
                 node = load(node + 16)) {
                const std::uint64_t nw0 = load(node);
                if (used(nw0) && tag(nw0) == t)
                    return {h0, node, nw0};
            }
        }
        return {h0, 0, 0};
    }

    /** Owner set of the entry at @p entry (loads word1 when multi). */
    template <typename Load>
    static std::uint64_t
    owners(Addr entry, std::uint64_t w0, Load &&load)
    {
        return multi(w0) ? load(entry + 8) : 1ull << owner(w0);
    }

    /** @name Chain-node pool (host-side free list). @{ */
    Addr allocNode();
    void freeNode(Addr node);
    std::size_t freeNodes() const { return freeList_.size(); }
    /** @} */

  private:
    unsigned buckets_;
    Addr base_;
    Addr poolBase_;
    unsigned poolNodes_;
    std::vector<Addr> freeList_;
};

} // namespace utm

#endif // UFOTM_USTM_OTABLE_HH
