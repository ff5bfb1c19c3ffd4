#include "mem/sim_memory.hh"

#include <cstring>

#include "sim/logging.hh"

namespace utm {

inline SimMemory::Page *
SimMemory::findPage(Addr a) const
{
    const std::uint64_t idx = a >> kPageBits;
    if (idx < kTablePages)
        return tablePage(idx);
    auto it = pages_.find(idx);
    return it == pages_.end() ? nullptr : it->second.get();
}

SimMemory::Page &
SimMemory::pageFor(Addr a)
{
    if (Page *p = findPage(a))
        return *p;
    const std::uint64_t idx = a >> kPageBits;
    Page *p = pages_.emplace(idx, std::make_unique<Page>())
                  .first->second.get();
    if (idx < kTablePages) {
        std::unique_ptr<Leaf> &leaf = table_[idx >> kLeafBits];
        if (!leaf)
            leaf = std::make_unique<Leaf>();
        (*leaf)[idx & (kLeafPages - 1)] = p;
    }
    return *p;
}

std::uint64_t
SimMemory::readChecked(Addr a, unsigned size) const
{
    utm_assert(size == 1 || size == 2 || size == 4 || size == 8);
    utm_assert(lineOf(a) == lineOf(a + size - 1));
    const Page *p = findPage(a);
    if (!p)
        return 0;
    std::uint64_t v = 0;
    std::memcpy(&v, p->data.data() + (a & (kPageSize - 1)), size);
    return v;
}

void
SimMemory::write(Addr a, std::uint64_t v, unsigned size)
{
    utm_assert(size == 1 || size == 2 || size == 4 || size == 8);
    utm_assert(lineOf(a) == lineOf(a + size - 1));
    Page &p = pageFor(a);
    std::memcpy(p.data.data() + (a & (kPageSize - 1)), &v, size);
    ++p.writes;
}

std::uint64_t
SimMemory::pageWrites(Addr a) const
{
    const Page *p = findPage(a);
    return p ? p->writes : 0;
}

UfoBits
SimMemory::ufoBits(LineAddr line) const
{
    const Page *p = findPage(line);
    if (!p)
        return kUfoNone;
    std::uint8_t raw =
        p->ufo[(line & (kPageSize - 1)) >> kLineBits];
    return UfoBits{(raw & 1) != 0, (raw & 2) != 0};
}

void
SimMemory::setUfoBits(LineAddr line, UfoBits bits)
{
    utm_assert(lineOffset(line) == 0);
    ++ufoChanges_;
    Page &p = pageFor(line);
    std::uint8_t &slot = p.ufo[(line & (kPageSize - 1)) >> kLineBits];
    const bool was = slot != 0;
    slot = static_cast<std::uint8_t>((bits.faultOnRead ? 1 : 0) |
                                     (bits.faultOnWrite ? 2 : 0));
    const bool now = slot != 0;
    if (was && !now)
        ufoLines_.erase(line);
    else if (!was && now)
        ufoLines_.insert(line);
}

void
SimMemory::addUfoBits(LineAddr line, UfoBits bits)
{
    UfoBits cur = ufoBits(line);
    setUfoBits(line, UfoBits{cur.faultOnRead || bits.faultOnRead,
                             cur.faultOnWrite || bits.faultOnWrite});
}

bool
SimMemory::pageExists(Addr a) const
{
    return findPage(a) != nullptr;
}

void
SimMemory::materializePage(Addr a)
{
    pageFor(a);
}

void
SimMemory::forEachUfoLine(
    const std::function<bool(LineAddr, UfoBits)> &fn) const
{
    for (LineAddr line : ufoLines_)
        if (!fn(line, ufoBits(line)))
            return;
}

void
SimMemory::forEachPage(const std::function<void(Addr)> &fn) const
{
    for (const auto &[idx, page] : pages_)
        fn(idx << kPageBits);
}

bool
SimMemory::pageHasUfoBits(Addr a) const
{
    const Addr base = a & ~(kPageSize - 1);
    auto it = ufoLines_.lower_bound(base);
    return it != ufoLines_.end() && *it < base + kPageSize;
}

} // namespace utm
