/**
 * @file
 * The flight-recorder trace record: one fixed-size POD per observed
 * event, stamped with sim-time. Records are produced by the
 * instrumented subsystems (Network, TyphoonMemSystem, DirMemSystem)
 * through FlightRecorder's inline record methods and consumed by the
 * per-node crash rings, the Perfetto exporter, the sharing analyzer
 * and the transaction tracer (DESIGN.md §9).
 *
 * This header is deliberately dependency-light (sim/types.hh only) so
 * that src/net can include the recorder without acquiring protocol
 * dependencies.
 */

#ifndef TT_OBS_RECORD_HH
#define TT_OBS_RECORD_HH

#include <cstdint>

#include "sim/types.hh"

namespace tt
{

/** What a TraceRecord describes. */
enum class RecKind : std::uint8_t
{
    MsgSend,     ///< message departed the source (Network::send)
    MsgDeliver,  ///< a protocol handler began executing the message
    HandlerDone, ///< a handler activation finished (msg/BAF/page fault)
    BlockFault,  ///< a tag-checked access faulted and suspended the CPU
    MissStart,   ///< a hardware-protocol remote/conflict miss opened
    MissEnd,     ///< the suspended access finally completed
    Resume,      ///< the NP restarted the suspended thread
    TagChange,   ///< a block's Tempest access tag changed
    PageMap,     ///< a page was mapped into a node's page table
    PageUnmap,   ///< a page was unmapped
    BulkPacket,  ///< the bulk-transfer engine injected a packet

    // Sharing-analysis kinds (DESIGN.md §11). Only emitted when the
    // SharingAnalyzer is attached (FlightRecorder::wantSharing()), so
    // plain --trace runs stay byte-identical to pre-analyzer traces.
    BlockAccess, ///< a CPU access completed (full va + size + op)
    InvalSent,   ///< a home sent an invalidation/recall/update round
    DirTrans,    ///< a directory entry changed state at its home

    // Transaction-tracing kind (DESIGN.md §14). Only emitted when the
    // TxnTracer is attached (FlightRecorder::wantTxn()), so plain
    // --trace runs stay byte-identical to pre-tracer traces.
    MsgSup,      ///< the transport suppressed an arrival (dup / ooo)
};

/** TraceRecord::flags bits (MsgSend / MsgSup). */
enum RecFlags : std::uint8_t
{
    kRecRetransmit = 1 << 0, ///< transport retransmission of a Data msg
    kRecDropped = 1 << 1,    ///< the fabric dropped this physical copy
};

/** Sub-kind for InvalSent records (what kind of round went out). */
enum class InvKind : std::uint8_t
{
    Inval = 0,     ///< invalidate shared copies
    Recall = 1,    ///< recall an exclusive copy (to invalid)
    Downgrade = 2, ///< demote an exclusive copy to read-only
    Update = 3,    ///< push new data to registered copies (no inval)
};

/** Sub-kind for HandlerDone records (what kind of activation ran). */
enum class ActKind : std::uint8_t
{
    Msg = 0,  ///< active-message handler (id = handler id)
    Baf = 1,  ///< block-access-fault handler (id = fault mode)
    Page = 2, ///< page-fault handler on the CPU
};

/**
 * One trace record. Field use is kind-specific:
 *
 * | kind        | tick      | t2       | addr    | id      | arg   | node | sub    |
 * |-------------|-----------|----------|---------|---------|-------|------|--------|
 * | MsgSend     | depart    | arrive   | handler | msg id  | dst   | src  | vnet   |
 * | MsgDeliver  | dispatch  | --       | handler | msg id  | --    | self | vnet   |
 * | HandlerDone | start     | charged  | handler | msg id  | --    | self | ActKind|
 * | BlockFault  | post tick | --       | va      | --      | tag   | self | MemOp  |
 * | MissStart   | issue     | --       | blk     | --      | --    | self | MemOp  |
 * | MissEnd     | complete  | --       | va      | --      | --    | self | MemOp  |
 * | Resume      | tick      | --       | --      | --      | --    | self | --     |
 * | TagChange   | tick      | --       | blk     | --      | --    | self | tag    |
 * | PageMap     | tick      | --       | pageVa  | --      | mode  | self | --     |
 * | PageUnmap   | tick      | --       | pageVa  | --      | --    | self | --     |
 * | BulkPacket  | tick      | cost     | --      | --      | bytes | self | --     |
 * | BlockAccess | complete  | --       | va      | --      | size  | self | write? |
 * | InvalSent   | tick      | --       | blk     | req nd  | fanout| home | InvKind|
 * | DirTrans    | tick      | --       | blk     | --      | old st| home | new st |
 * | MsgSup      | arrive    | --       | handler | msg id  | src   | self | vnet   |
 *
 * DirTrans states use a protocol-independent encoding (0 = Idle,
 * 1 = Shared, 2 = Excl), matching both StacheDirEntry::State and
 * DirMemSystem::DirState.
 *
 * `id` is the causal message id: Network::send stamps a fresh id onto
 * every message when tracing is on, and the MsgDeliver / HandlerDone
 * records at the destination carry the same id, linking the pair
 * across the trace.
 *
 * `txn` is the coherence-transaction id (DESIGN.md §14): nonzero only
 * when the TxnTracer is attached, stamped at the faulting/missing
 * origin (BlockFault / MissStart) and piggybacked onto every derived
 * record — message flights, handler activations, invalidation rounds
 * — until the MissEnd that closes the transaction. `flags` carries
 * the RecFlags bits for message records (retransmit / dropped).
 */
struct TraceRecord
{
    Tick tick = 0;
    Tick t2 = 0;
    std::uint64_t addr = 0;
    std::uint32_t id = 0;   ///< causal message id (0 = none)
    std::uint32_t arg = 0;  ///< kind-specific small argument
    std::uint32_t txn = 0;  ///< coherence-transaction id (0 = none)
    NodeId node = kNoNode;
    RecKind kind = RecKind::MsgSend;
    std::uint8_t sub = 0;
    std::uint8_t flags = 0; ///< RecFlags bits (message records)
};

} // namespace tt

#endif // TT_OBS_RECORD_HH
