#include "dur/recovery.hh"

#include <algorithm>

#include "mem/persist.hh"
#include "mem/sim_memory.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/machine.hh"

namespace utm {
namespace dur {

namespace {

/** A write replay can apply: a 1-, 2-, 4- or 8-byte store that stays
 *  within one line. */
bool
writeFits(const RecoveredWrite &w)
{
    return (w.size == 1 || w.size == 2 || w.size == 4 || w.size == 8) &&
           lineOf(w.addr) == lineOf(w.addr + w.size - 1);
}

/**
 * Scan one shard log for valid records.  Stops at the first zero
 * header (unwritten space) or invalid record (torn tail: the crash
 * hit mid-write-back).  Per-shard append serialization guarantees a
 * torn record is the last one, so stopping is truncation.  A record
 * whose checksum holds but which carries a write replay cannot apply
 * is invalid too: it is truncated the same way, never trusted.
 */
void
scanShard(Machine &machine, unsigned shard, RecoveryReport *rep,
          std::vector<RecoveredRecord> *out)
{
    const PersistConfig &pc = machine.config().persist;
    SimMemory &mem = machine.memory();
    const Addr base =
        pc.logBase + Addr(shard) * pc.logShardStride + kLineSize;
    const std::uint64_t capacity = pc.logShardStride - kLineSize;
    constexpr std::uint64_t kMinLen =
        8 * (1 + PersistDomain::kRecordFixedWords +
             PersistDomain::kRecordWordsPerWrite);

    ++rep->shardsScanned;
    std::uint64_t off = 0;
    while (off + 8 <= capacity) {
        const std::uint64_t header = mem.read(base + off, 8);
        if (header == 0)
            break; // Unwritten space: the log ends here.
        const std::uint64_t len = header & 0xffffffffull;
        const std::uint32_t cksum =
            static_cast<std::uint32_t>(header >> 32);
        ++rep->recordsScanned;
        rep->cycles += pc.recoverScanPerRecord;
        if (len < kMinLen || len % 8 != 0 || off + len > capacity) {
            ++rep->recordsDiscarded; // Torn header: truncate.
            break;
        }
        const std::uint64_t nwords = len / 8 - 1;
        std::vector<std::uint64_t> words(nwords);
        for (std::uint64_t i = 0; i < nwords; ++i)
            words[i] = mem.read(base + off + 8 * (i + 1), 8);
        // Derive the write count from the length rather than multiply
        // the stored one: a large stored count wraps the product.
        const std::uint64_t write_words =
            nwords - PersistDomain::kRecordFixedWords;
        const std::uint64_t nwrites = words[2];
        const bool shape_ok =
            write_words % PersistDomain::kRecordWordsPerWrite == 0 &&
            write_words / PersistDomain::kRecordWordsPerWrite == nwrites;
        if (!shape_ok ||
            persistChecksum(words.data(), words.size()) != cksum) {
            ++rep->recordsDiscarded; // Torn payload: truncate.
            break;
        }
        RecoveredRecord rec;
        rec.txid = words[0];
        rec.commitTs = words[1];
        rec.shard = shard;
        rec.writes.reserve(nwrites);
        for (std::uint64_t w = 0; w < nwrites; ++w) {
            const std::uint64_t *t =
                &words[PersistDomain::kRecordFixedWords +
                       PersistDomain::kRecordWordsPerWrite * w];
            RecoveredWrite rw;
            rw.addr = t[0];
            rw.value = t[1];
            rw.size = static_cast<unsigned>(t[2] & 0xff);
            rw.ufo = UfoBits{(t[2] & 0x100) != 0, (t[2] & 0x200) != 0};
            rec.writes.push_back(rw);
        }
        if (!std::all_of(rec.writes.begin(), rec.writes.end(),
                         writeFits)) {
            ++rep->recordsDiscarded; // Malformed write: truncate.
            break;
        }
        rep->bytesScanned += len;
        out->push_back(std::move(rec));
        off += len;
    }
}

} // namespace

RecoveryReport
recover(Machine &machine, const PersistentImage &image)
{
    const PersistConfig &pc = machine.config().persist;
    SimMemory &mem = machine.memory();
    RecoveryReport rep;

    // 1. Overlay the surviving lines: data and UFO bits, exactly as
    // they crossed the persistence boundary.
    for (const auto &[line, img] : image.lines()) {
        mem.materializePage(line);
        for (unsigned o = 0; o < kLineSize; o += 8) {
            std::uint64_t w = 0;
            for (int b = 0; b < 8; ++b)
                w |= std::uint64_t(img.data[o + b]) << (8 * b);
            mem.write(line + o, w, 8);
        }
        mem.setUfoBits(line, img.ufo);
        ++rep.linesLoaded;
        rep.cycles += pc.recoverLoadPerLine;
    }

    // 2. Scan every shard log, truncating torn tails.
    const unsigned shards = std::max(1u, machine.config().otableShards);
    std::vector<RecoveredRecord> records;
    for (unsigned s = 0; s < shards; ++s)
        scanShard(machine, s, &rep, &records);

    // 3. Replay across shards in commit-timestamp order.  Timestamps
    // are globally unique (a dense machine-wide counter), so the
    // order is total.
    std::sort(records.begin(), records.end(),
              [](const RecoveredRecord &a, const RecoveredRecord &b) {
                  return a.commitTs < b.commitTs;
              });
    rep.appliedTs.reserve(records.size());
    for (const RecoveredRecord &rec : records) {
        for (const RecoveredWrite &w : rec.writes) {
            utm_assert(w.size >= 1 && w.size <= 8);
            mem.materializePage(w.addr);
            mem.write(w.addr, w.value, w.size);
            ++rep.writesApplied;
            rep.cycles += pc.recoverApplyPerWrite;
        }
        ++rep.recordsApplied;
        rep.appliedTs.push_back(rec.commitTs);
        rep.maxCommitTs = std::max(rep.maxCommitTs, rec.commitTs);
    }

    // 4. Scrub surviving protection bits: no transaction is live, the
    // ownership table rebuilds empty, and the otable↔UFO lockstep
    // invariant therefore requires an all-clear protection map.
    std::vector<LineAddr> protectedLines;
    protectedLines.reserve(mem.ufoLineCount());
    mem.forEachUfoLine([&](LineAddr line, UfoBits) {
        protectedLines.push_back(line);
        return true;
    });
    for (LineAddr line : protectedLines)
        mem.setUfoBits(line, kUfoNone);
    rep.ufoLinesScrubbed = protectedLines.size();

    StatsRegistry &st = machine.stats();
    st.set("rec.shards_scanned", rep.shardsScanned);
    st.set("rec.lines_loaded", rep.linesLoaded);
    st.set("rec.records.scanned", rep.recordsScanned);
    st.set("rec.records.applied", rep.recordsApplied);
    st.set("rec.records.discarded", rep.recordsDiscarded);
    st.set("rec.writes_applied", rep.writesApplied);
    st.set("rec.bytes_scanned", rep.bytesScanned);
    st.set("rec.ufo_lines_scrubbed", rep.ufoLinesScrubbed);
    st.set("rec.max_commit_ts", rep.maxCommitTs);
    st.set("rec.cycles", rep.cycles);
    return rep;
}

std::string
RecoveryReport::toJson() const
{
    json::Writer w;
    w.beginObject();
    w.kv("schema", "ufotm-recover");
    w.kv("version", std::uint64_t(1));
    w.kv("shards_scanned", shardsScanned);
    w.kv("lines_loaded", linesLoaded);
    w.key("records").beginObject();
    w.kv("scanned", recordsScanned);
    w.kv("applied", recordsApplied);
    w.kv("discarded", recordsDiscarded);
    w.endObject();
    w.kv("writes_applied", writesApplied);
    w.kv("bytes_scanned", bytesScanned);
    w.kv("ufo_lines_scrubbed", ufoLinesScrubbed);
    w.kv("max_commit_ts", maxCommitTs);
    w.kv("recovery_cycles", cycles);
    w.endObject();
    return w.str();
}

} // namespace dur
} // namespace utm
