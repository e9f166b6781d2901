#include "workloads/workload.hh"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "core/assembler.hh"
#include "core/logging.hh"

namespace tia {

namespace {

/** Render a `.def NAME value` line. */
std::string
def(const std::string &name, Word value)
{
    std::ostringstream os;
    os << ".def " << name << " " << value << "\n";
    return os.str();
}

/**
 * The shared "streamer" PE used by several multi-PE workloads: reads
 * `count` words starting at `base` through its read port (%o0 request,
 * %i0 response) and forwards them on %o3 with tag 0, then emits an
 * end-of-stream token with tag 1 and halts.
 *
 * Decoupled request/respond structure: a high-priority responder
 * forwards each arriving word in a single instruction while a
 * lower-priority requester races ahead issuing addresses, hiding the
 * memory latency — the "efficient processing chain" idiom triggered
 * control is built for (Section 2.1). The final address is requested
 * with tag 1; the read port echoes it, letting the responder detect
 * the last element without a counter.
 *
 * Register protocol: r0 = next index (preload 0), r1 = count - 1.
 */
std::string
streamerPe(const std::string &base_def)
{
    return
        base_def +
        // Responder.
        "when %p == XXXXXXXX with %i0.0: mov %o3.0, %i0; deq %i0;\n"
        "when %p == XX0XXXX0 with %i0.1: mov %o3.0, %i0; deq %i0; "
        "set %p = ZZ1ZZZZZ;\n"
        "when %p == XX1XXXXX: mov %o3.1, #0; set %p = ZZ0ZZZZ1;\n"
        "when %p == XXXXXXX1: halt;\n"
        // Requester (states on p2 p1; dead-ends at 11 after the
        // tag-1 request for the final element).
        "when %p == XXXXX00X: ult %p4, %r0, %r1; set %p = ZZZZZ01Z;\n"
        "when %p == XXX1X01X: add %o0.0, %r0, SBASE; set %p = ZZZZZ10Z;\n"
        "when %p == XXXXX10X: add %r0, %r0, #1; set %p = ZZZZZ00Z;\n"
        "when %p == XXX0X01X: add %o0.1, %r0, SBASE; set %p = ZZZZZ11Z;\n";
}

/** Register preload for streamerPe covering @p count elements. */
std::vector<Word>
streamerRegs(unsigned count)
{
    fatalIf(count == 0, "streamer needs at least one element");
    return {0, count - 1};
}

std::string
checkWord(const Memory &memory, Word address, Word expected,
          std::string_view what)
{
    const Word actual = memory.read(address);
    if (actual != expected) {
        std::ostringstream os;
        os << what << ": memory[" << address << "] = " << actual
           << ", expected " << expected;
        return os.str();
    }
    return "";
}

} // namespace

// ---------------------------------------------------------------------------
// bst — memory-access-intensive tree search (single PE).
// ---------------------------------------------------------------------------

namespace {

constexpr Word kBstQueryBase = 1024;
constexpr Word kBstResultBase = 2048;
constexpr Word kBstNodeBase = 4096; // node = [key, left, right]

struct BstData
{
    std::vector<Word> keys;        // inserted keys
    std::vector<Word> queries;     // searched keys
    std::vector<Word> nodes;       // packed node records
    Word root = 0;                 // address of the root node
};

BstData
buildBst(const WorkloadSizes &sizes)
{
    BstData data;
    Xorshift rng(0xb57);

    // Distinct random keys (avoid 0 so keys never collide with null).
    while (data.keys.size() < sizes.bstNodes) {
        const Word key = rng.next() | 1u;
        data.keys.push_back(key);
    }
    std::sort(data.keys.begin(), data.keys.end());
    data.keys.erase(std::unique(data.keys.begin(), data.keys.end()),
                    data.keys.end());
    // Shuffle to randomize tree shape (insertion order).
    for (std::size_t i = data.keys.size(); i > 1; --i)
        std::swap(data.keys[i - 1], data.keys[rng.below(
                                        static_cast<std::uint32_t>(i))]);

    // Insert into an explicit pointer-based tree in the memory image.
    auto node_addr = [&](std::size_t index) {
        return static_cast<Word>(kBstNodeBase + 3 * index);
    };
    for (std::size_t i = 0; i < data.keys.size(); ++i) {
        data.nodes.push_back(data.keys[i]); // key
        data.nodes.push_back(0);            // left
        data.nodes.push_back(0);            // right
    }
    data.root = node_addr(0);
    for (std::size_t i = 1; i < data.keys.size(); ++i) {
        Word cursor = data.root;
        for (;;) {
            const std::size_t ci = (cursor - kBstNodeBase) / 3;
            const unsigned link = data.keys[i] < data.nodes[3 * ci] ? 1 : 2;
            if (data.nodes[3 * ci + link] == 0) {
                data.nodes[3 * ci + link] = node_addr(i);
                break;
            }
            cursor = data.nodes[3 * ci + link];
        }
    }

    // Half the queries hit, half miss.
    for (unsigned q = 0; q < sizes.bstQueries; ++q) {
        if (q % 2 == 0) {
            data.queries.push_back(
                data.keys[rng.below(
                    static_cast<std::uint32_t>(data.keys.size()))]);
        } else {
            data.queries.push_back(rng.next() & ~1u); // even: never a key
        }
    }
    return data;
}

} // namespace

Workload
makeBst(const WorkloadSizes &sizes)
{
    Workload w;
    w.name = "bst";
    w.description = "Binary search tree lookups over random keys "
                    "(memory-access intensive, branch-entropy heavy)";

    const BstData data = buildBst(sizes);

    std::string source =
        def("QBASE", kBstQueryBase) + def("RBASE", kBstResultBase) +
        // p3..p0 = control state; p4 = all-queries-done; p5 = null
        // node; p6 = key found; p7 = descend-left.
        "when %p == XXXX0000: uge %p4, %r2, %r3; set %p = ZZZZ0001;\n"
        "when %p == XXX10001: halt;\n"
        "when %p == XXX00001: add %o0.0, %r2, QBASE; set %p = ZZZZ0010;\n"
        "when %p == XXXX0010 with %i0.0: mov %r1, %i0; deq %i0; "
        "set %p = ZZZZ0011;\n"
        "when %p == XXXX0011: add %o1.0, %r2, RBASE; set %p = ZZZZ0100;\n"
        "when %p == XXXX0100: mov %r0, %r5; set %p = ZZZZ0101;\n"
        "when %p == XXXX0101: eq %p5, %r0, #0; set %p = ZZZZ0110;\n"
        "when %p == XX1X0110: mov %o2.0, #0; set %p = ZZZZ1111;\n"
        "when %p == XX0X0110: mov %o0.0, %r0; set %p = ZZZZ0111;\n"
        "when %p == XXXX0111 with %i0.0: eq %p6, %i0, %r1; "
        "set %p = ZZZZ1000;\n"
        "when %p == X1XX1000: mov %o2.0, #1; deq %i0; set %p = ZZZZ1111;\n"
        "when %p == X0XX1000: ult %p7, %r1, %i0; set %p = ZZZZ1001;\n"
        "when %p == 1XXX1001: add %o0.0, %r0, #1; deq %i0; "
        "set %p = ZZZZ1010;\n"
        "when %p == 0XXX1001: add %o0.0, %r0, #2; deq %i0; "
        "set %p = ZZZZ1010;\n"
        "when %p == XXXX1010 with %i0.0: mov %r0, %i0; deq %i0; "
        "set %p = ZZZZ0101;\n"
        "when %p == XXXX1111: add %r2, %r2, #1; set %p = ZZZZ0000;\n";
    w.program = assemble(source);

    FabricBuilder builder(w.program.params, 1);
    builder.addReadPort(0, 0, 0);
    builder.addWritePort(0, 1, 2);
    builder.setInitialRegs(
        0, {0, 0, 0, static_cast<Word>(data.queries.size()), 0, data.root});
    w.config = builder.build();
    w.workerPe = 0;

    w.preload = [data](Memory &memory) {
        for (std::size_t i = 0; i < data.queries.size(); ++i)
            memory.write(kBstQueryBase + static_cast<Word>(i),
                         data.queries[i]);
        for (std::size_t i = 0; i < data.nodes.size(); ++i)
            memory.write(kBstNodeBase + static_cast<Word>(i),
                         data.nodes[i]);
    };
    std::vector<Word> sorted_keys = data.keys;
    std::sort(sorted_keys.begin(), sorted_keys.end());
    w.check = [data, sorted_keys](const Memory &memory) -> std::string {
        for (std::size_t i = 0; i < data.queries.size(); ++i) {
            const bool found =
                std::binary_search(sorted_keys.begin(), sorted_keys.end(),
                                   data.queries[i]);
            auto err = checkWord(memory,
                                 kBstResultBase + static_cast<Word>(i),
                                 found ? 1 : 0, "bst query result");
            if (!err.empty())
                return err;
        }
        return "";
    };
    return w;
}

// ---------------------------------------------------------------------------
// gcd — long-running register-register loop (single PE).
// ---------------------------------------------------------------------------

Workload
makeGcd(const WorkloadSizes &sizes)
{
    Workload w;
    w.name = "gcd";
    w.description = "Subtractive GCD of two memory operands "
                    "(long-running, predictable loop)";

    std::string source =
        // p3..p0 = control state; p4 = operands equal. The inner loop
        // uses umax/umin (branch-free) so each iteration makes a
        // single datapath predicate write, keeping the dynamic
        // predicate-write rate near the paper's ~20%.
        "when %p == XXXX0000: mov %o0.0, #0; set %p = ZZZZ0001;\n"
        "when %p == XXXX0001 with %i0.0: mov %r0, %i0; deq %i0; "
        "set %p = ZZZZ0010;\n"
        "when %p == XXXX0010: mov %o0.0, #1; set %p = ZZZZ0011;\n"
        "when %p == XXXX0011 with %i0.0: mov %r1, %i0; deq %i0; "
        "set %p = ZZZZ0100;\n"
        "when %p == XXXX0100: eq %p4, %r0, %r1; set %p = ZZZZ0101;\n"
        "when %p == XXX10101: mov %o1.0, #2; set %p = ZZZZ1000;\n"
        "when %p == XXX00101: umax %r2, %r0, %r1; set %p = ZZZZ0110;\n"
        "when %p == XXXX0110: umin %r3, %r0, %r1; set %p = ZZZZ0111;\n"
        "when %p == XXXX0111: sub %r0, %r2, %r3; set %p = ZZZZ1001;\n"
        "when %p == XXXX1001: mov %r1, %r3; set %p = ZZZZ0100;\n"
        "when %p == XXXX1000: mov %o2.0, %r0; set %p = ZZZZ1010;\n"
        "when %p == XXXX1010: halt;\n";
    w.program = assemble(source);

    FabricBuilder builder(w.program.params, 1);
    builder.addReadPort(0, 0, 0);
    builder.addWritePort(0, 1, 2);
    w.config = builder.build();
    w.workerPe = 0;

    const Word a = sizes.gcdA;
    const Word b = sizes.gcdB;
    fatalIf(a == 0 || b == 0, "gcd operands must be positive");

    w.preload = [a, b](Memory &memory) {
        memory.write(0, a);
        memory.write(1, b);
    };
    w.check = [a, b](const Memory &memory) {
        Word x = a;
        Word y = b;
        while (y != 0) {
            const Word t = x % y;
            x = y;
            y = t;
        }
        return checkWord(memory, 2, x, "gcd");
    };
    return w;
}

// ---------------------------------------------------------------------------
// mean — accumulate an array and average it (single PE).
// ---------------------------------------------------------------------------

namespace {
constexpr Word kArrayBase = 16;
constexpr Word kScalarResultAddr = 4;
} // namespace

Workload
makeMean(const WorkloadSizes &sizes)
{
    Workload w;
    w.name = "mean";
    w.description = "Array accumulation and average "
                    "(compute + memory, predictable loop)";

    fatalIf((sizes.meanCount & (sizes.meanCount - 1)) != 0,
            "meanCount must be a power of two (the ISA has no division)");
    const unsigned log_n = clog2(sizes.meanCount);

    std::string source =
        def("SBASE", kArrayBase) + def("LOGN", log_n) +
        // Decoupled accumulate (responder) / address generation
        // (requester). The final element is requested with tag 1, so
        // its arrival (p7) starts the finish sequence on p3 p2.
        "when %p == XXXXXXXX with %i0.0: add %r1, %r1, %i0; deq %i0;\n"
        "when %p == 0XXXXXXX with %i0.1: add %r1, %r1, %i0; deq %i0; "
        "set %p = 1ZZZZZZZ;\n"
        "when %p == 1XXX00XX: srl %r1, %r1, LOGN; set %p = ZZZZ01ZZ;\n"
        "when %p == 1XXX01XX: mov %o1.0, #4; set %p = ZZZZ10ZZ;\n"
        "when %p == 1XXX10XX: mov %o2.0, %r1; set %p = ZZZZ11ZZ;\n"
        "when %p == 1XXX11XX: halt;\n"
        // Requester on p1 p0 (r2 = count - 1).
        "when %p == XXXXXX00: ult %p4, %r0, %r2; set %p = ZZZZZZ01;\n"
        "when %p == XXX1XX01: add %o0.0, %r0, SBASE; set %p = ZZZZZZ10;\n"
        "when %p == XXXXXX10: add %r0, %r0, #1; set %p = ZZZZZZ00;\n"
        "when %p == XXX0XX01: add %o0.1, %r0, SBASE; set %p = ZZZZZZ11;\n";
    w.program = assemble(source);

    FabricBuilder builder(w.program.params, 1);
    builder.addReadPort(0, 0, 0);
    builder.addWritePort(0, 1, 2);
    builder.setInitialRegs(0, {0, 0, sizes.meanCount - 1});
    w.config = builder.build();
    w.workerPe = 0;

    std::vector<Word> values;
    Xorshift rng(0x3ea);
    for (unsigned i = 0; i < sizes.meanCount; ++i)
        values.push_back(rng.next() & 0xfffff); // bounded: no overflow

    w.preload = [values](Memory &memory) {
        for (std::size_t i = 0; i < values.size(); ++i)
            memory.write(kArrayBase + static_cast<Word>(i), values[i]);
    };
    w.check = [values, log_n](const Memory &memory) {
        Word sum = 0;
        for (Word v : values)
            sum += v;
        return checkWord(memory, kScalarResultAddr, sum >> log_n, "mean");
    };
    return w;
}

// ---------------------------------------------------------------------------
// arg_max — streamer + max-tracking worker (2 PEs).
// ---------------------------------------------------------------------------

Workload
makeArgMax(const WorkloadSizes &sizes)
{
    Workload w;
    w.name = "arg_max";
    w.description = "Index of the maximum of a streamed array "
                    "(2 PEs: streamer -> worker)";

    std::string source =
        ".pe 0\n" + streamerPe(def("SBASE", kArrayBase)) +
        ".pe 1\n"
        // p3..p0 = state; p4 = new maximum seen.
        "when %p == XXXX0000 with %i0.0: ugt %p4, %i0, %r0; "
        "set %p = ZZZZ0001;\n"
        "when %p == XXX10001: mov %r0, %i0; set %p = ZZZZ0010;\n"
        "when %p == XXXX0010: mov %r1, %r2; set %p = ZZZZ0011;\n"
        "when %p == XXXX0011: add %r2, %r2, #1; deq %i0; "
        "set %p = ZZZZ0000;\n"
        "when %p == XXX00001: add %r2, %r2, #1; deq %i0; "
        "set %p = ZZZZ0000;\n"
        "when %p == XXXX0000 with %i0.1: mov %o1.0, #4; deq %i0; "
        "set %p = ZZZZ0100;\n"
        "when %p == XXXX0100: mov %o2.0, %r1; set %p = ZZZZ0101;\n"
        "when %p == XXXX0101: halt;\n";
    w.program = assemble(source);

    FabricBuilder builder(w.program.params, 2);
    builder.addReadPort(0, 0, 0);
    builder.connect(0, 3, 1, 0);
    builder.addWritePort(1, 1, 2);
    builder.setInitialRegs(0, streamerRegs(sizes.argMaxCount));
    w.config = builder.build();
    w.workerPe = 1;

    std::vector<Word> values;
    Xorshift rng(0xa93);
    for (unsigned i = 0; i < sizes.argMaxCount; ++i)
        values.push_back(rng.next());

    w.preload = [values](Memory &memory) {
        for (std::size_t i = 0; i < values.size(); ++i)
            memory.write(kArrayBase + static_cast<Word>(i), values[i]);
    };
    w.check = [values](const Memory &memory) {
        const auto it = std::max_element(values.begin(), values.end());
        const Word index =
            static_cast<Word>(std::distance(values.begin(), it));
        return checkWord(memory, kScalarResultAddr, index, "arg_max");
    };
    return w;
}

// ---------------------------------------------------------------------------
// dot_product — two streamers + multiply-accumulate worker (3 PEs).
// ---------------------------------------------------------------------------

namespace {
constexpr Word kVecABase = 16;
constexpr Word kVecBBase = 16384;
} // namespace

Workload
makeDotProduct(const WorkloadSizes &sizes)
{
    Workload w;
    w.name = "dot_product";
    w.description = "Streaming integer dot product "
                    "(3 PEs; the worker uses only tag semantics, "
                    "no predicate control flow)";

    std::string source =
        ".pe 0\n" + streamerPe(def("SBASE", kVecABase)) +
        ".pe 1\n" + streamerPe(def("SBASE", kVecBBase)) +
        ".pe 2\n"
        "when %p == XXXX0000 with %i0.0, %i1.0: mul %r1, %i0, %i1; "
        "deq %i0, %i1; set %p = ZZZZ0001;\n"
        "when %p == XXXX0001: add %r0, %r0, %r1; set %p = ZZZZ0000;\n"
        "when %p == XXXX0000 with %i0.1, %i1.1: mov %o1.0, #4; "
        "deq %i0, %i1; set %p = ZZZZ0010;\n"
        "when %p == XXXX0010: mov %o2.0, %r0; set %p = ZZZZ0011;\n"
        "when %p == XXXX0011: halt;\n";
    w.program = assemble(source);

    FabricBuilder builder(w.program.params, 3);
    builder.addReadPort(0, 0, 0);
    builder.addReadPort(1, 0, 0);
    builder.connect(0, 3, 2, 0);
    builder.connect(1, 3, 2, 1);
    builder.addWritePort(2, 1, 2);
    builder.setInitialRegs(0, streamerRegs(sizes.dotCount));
    builder.setInitialRegs(1, streamerRegs(sizes.dotCount));
    w.config = builder.build();
    w.workerPe = 2;

    std::vector<Word> a, b;
    Xorshift rng(0xd07);
    for (unsigned i = 0; i < sizes.dotCount; ++i) {
        a.push_back(rng.next());
        b.push_back(rng.next());
    }

    w.preload = [a, b](Memory &memory) {
        for (std::size_t i = 0; i < a.size(); ++i) {
            memory.write(kVecABase + static_cast<Word>(i), a[i]);
            memory.write(kVecBBase + static_cast<Word>(i), b[i]);
        }
    };
    w.check = [a, b](const Memory &memory) {
        Word acc = 0;
        for (std::size_t i = 0; i < a.size(); ++i)
            acc += a[i] * b[i]; // modulo 2^32, as the PE computes
        return checkWord(memory, kScalarResultAddr, acc, "dot_product");
    };
    return w;
}

// ---------------------------------------------------------------------------
// filter — threshold filter with a boolean control stream (3 PEs).
// ---------------------------------------------------------------------------

namespace {
constexpr Word kFilterOutBase = 8192;
constexpr Word kFilterThreshold = 0x80000000u;
} // namespace

Workload
makeFilter(const WorkloadSizes &sizes)
{
    Workload w;
    w.name = "filter";
    w.description = "Threshold filter: a boolean stream steers which "
                    "values the worker stores (3 PEs, ~50% branch "
                    "entropy)";

    std::string source =
        ".pe 0\n" + def("SBASE", kArrayBase) +
        // Decoupled dual-forward streamer: each arriving value goes to
        // the comparator (o2) and the worker (o3) in two back-to-back
        // responder instructions (p5 sequences the pair); p6 marks the
        // tag-1 final element, p7 the EOF emission phase.
        "when %p == X00XXXXX with %i0.0: mov %o2.0, %i0; "
        "set %p = ZZ1ZZZZZ;\n"
        "when %p == X01XXXXX: mov %o3.0, %i0; deq %i0; "
        "set %p = ZZ0ZZZZZ;\n"
        "when %p == X00XXXXX with %i0.1: mov %o2.0, %i0; "
        "set %p = Z11ZZZZZ;\n"
        "when %p == X11XXXXX: mov %o3.0, %i0; deq %i0; "
        "set %p = 1Z0ZZZZZ;\n"
        "when %p == 110XXXXX: mov %o2.1, #0; set %p = ZZ1ZZZZZ;\n"
        "when %p == 111XXXXX: mov %o3.1, #0; set %p = 0Z0ZZZZ1;\n"
        "when %p == XXXXXXX1: halt;\n"
        // Requester on p2 p1 (r1 = count - 1).
        "when %p == XXXXX00X: ult %p4, %r0, %r1; set %p = ZZZZZ01Z;\n"
        "when %p == XXX1X01X: add %o0.0, %r0, SBASE; set %p = ZZZZZ10Z;\n"
        "when %p == XXXXX10X: add %r0, %r0, #1; set %p = ZZZZZ00Z;\n"
        "when %p == XXX0X01X: add %o0.1, %r0, SBASE; set %p = ZZZZZ11Z;\n"
        ".pe 1\n" + def("THRESH", kFilterThreshold) +
        "when %p == XXXXXXX0 with %i0.0: ugt %o0.0, %i0, THRESH; "
        "deq %i0;\n"
        "when %p == XXXXXXX0 with %i0.1: mov %o0.1, #0; deq %i0; "
        "set %p = ZZZZZZZ1;\n"
        "when %p == XXXXXXX1: halt;\n"
        ".pe 2\n" + def("OBASE", kFilterOutBase) +
        // p4 = keep this value?
        "when %p == XXXX0000 with %i0.0: ne %p4, %i0, #0; deq %i0; "
        "set %p = ZZZZ0001;\n"
        "when %p == XXX10001: add %o1.0, %r1, OBASE; set %p = ZZZZ0010;\n"
        "when %p == XXXX0010: mov %o2.0, %i1; deq %i1; set %p = ZZZZ0011;\n"
        "when %p == XXXX0011: add %r1, %r1, #1; set %p = ZZZZ0000;\n"
        "when %p == XXX00001: nop; deq %i1; set %p = ZZZZ0000;\n"
        "when %p == XXXX0000 with %i0.1: mov %o1.0, #4; deq %i0, %i1; "
        "set %p = ZZZZ0100;\n"
        "when %p == XXXX0100: mov %o2.0, %r1; set %p = ZZZZ0101;\n"
        "when %p == XXXX0101: halt;\n";
    w.program = assemble(source);

    FabricBuilder builder(w.program.params, 3);
    builder.addReadPort(0, 0, 0);
    builder.connect(0, 2, 1, 0); // values -> comparator
    builder.connect(0, 3, 2, 1); // values -> worker
    builder.connect(1, 0, 2, 0); // booleans -> worker
    builder.addWritePort(2, 1, 2);
    builder.setInitialRegs(0, {0, sizes.filterCount - 1});
    w.config = builder.build();
    w.workerPe = 2;

    std::vector<Word> values;
    Xorshift rng(0xf17);
    for (unsigned i = 0; i < sizes.filterCount; ++i)
        values.push_back(rng.next());

    w.preload = [values](Memory &memory) {
        for (std::size_t i = 0; i < values.size(); ++i)
            memory.write(kArrayBase + static_cast<Word>(i), values[i]);
    };
    w.check = [values](const Memory &memory) -> std::string {
        Word count = 0;
        for (Word v : values) {
            if (v > kFilterThreshold) {
                auto err = checkWord(memory, kFilterOutBase + count, v,
                                     "filter kept value");
                if (!err.empty())
                    return err;
                ++count;
            }
        }
        return checkWord(memory, kScalarResultAddr, count, "filter count");
    };
    return w;
}

// ---------------------------------------------------------------------------
// merge — two sorted streams merged by a worker (3 PEs, "2x2 array").
// ---------------------------------------------------------------------------

namespace {
constexpr Word kMergeABase = 16;
constexpr Word kMergeBBase = 8192;
constexpr Word kMergeOutBase = 16384;
} // namespace

Workload
makeMerge(const WorkloadSizes &sizes)
{
    Workload w;
    w.name = "merge";
    w.description = "High-radix spatial merge sort worker: merges two "
                    "sorted token streams (3 PEs, data-dependent "
                    "control flow)";

    std::string source =
        ".pe 0\n" + streamerPe(def("SBASE", kMergeABase)) +
        ".pe 1\n" + streamerPe(def("SBASE", kMergeBBase)) +
        ".pe 2\n" + def("OBASE", kMergeOutBase) +
        // p4 = take from the left stream.
        "when %p == XXXX0000 with %i0.0, %i1.0: ule %p4, %i0, %i1; "
        "set %p = ZZZZ0001;\n"
        "when %p == XXX10001: mov %r0, %i0; deq %i0; set %p = ZZZZ0010;\n"
        "when %p == XXX00001: mov %r0, %i1; deq %i1; set %p = ZZZZ0010;\n"
        "when %p == XXXX0010: add %o1.0, %r1, OBASE; set %p = ZZZZ0011;\n"
        "when %p == XXXX0011: mov %o2.0, %r0; set %p = ZZZZ0100;\n"
        "when %p == XXXX0100: add %r1, %r1, #1; set %p = ZZZZ0000;\n"
        "when %p == XXXX0000 with %i0.1, %i1.0: mov %r0, %i1; deq %i1; "
        "set %p = ZZZZ0010;\n"
        "when %p == XXXX0000 with %i0.0, %i1.1: mov %r0, %i0; deq %i0; "
        "set %p = ZZZZ0010;\n"
        "when %p == XXXX0000 with %i0.1, %i1.1: nop; deq %i0, %i1; "
        "set %p = ZZZZ0101;\n"
        "when %p == XXXX0101: halt;\n";
    w.program = assemble(source);

    FabricBuilder builder(w.program.params, 3);
    builder.addReadPort(0, 0, 0);
    builder.addReadPort(1, 0, 0);
    builder.connect(0, 3, 2, 0);
    builder.connect(1, 3, 2, 1);
    builder.addWritePort(2, 1, 2);
    builder.setInitialRegs(0, streamerRegs(sizes.mergeCount));
    builder.setInitialRegs(1, streamerRegs(sizes.mergeCount));
    w.config = builder.build();
    w.workerPe = 2;

    std::vector<Word> a, b;
    Xorshift rng(0x3e6);
    for (unsigned i = 0; i < sizes.mergeCount; ++i) {
        a.push_back(rng.next());
        b.push_back(rng.next());
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());

    w.preload = [a, b](Memory &memory) {
        for (std::size_t i = 0; i < a.size(); ++i) {
            memory.write(kMergeABase + static_cast<Word>(i), a[i]);
            memory.write(kMergeBBase + static_cast<Word>(i), b[i]);
        }
    };
    w.check = [a, b](const Memory &memory) -> std::string {
        std::vector<Word> merged;
        std::merge(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(merged));
        for (std::size_t i = 0; i < merged.size(); ++i) {
            auto err = checkWord(memory,
                                 kMergeOutBase + static_cast<Word>(i),
                                 merged[i], "merge output");
            if (!err.empty())
                return err;
        }
        return "";
    };
    return w;
}

// ---------------------------------------------------------------------------
// stream — maximum-throughput sequential store loop (2 PEs).
// ---------------------------------------------------------------------------

namespace {
constexpr Word kStreamOutBase = 1024;
} // namespace

Workload
makeStream(const WorkloadSizes &sizes)
{
    Workload w;
    w.name = "stream";
    w.description = "Sequential store loop at maximum throughput: one "
                    "PE generates data, the other store indices "
                    "(2 PEs)";

    std::string source =
        ".pe 0\n"
        "when %p == XXXX0000: uge %p4, %r0, %r1; set %p = ZZZZ0001;\n"
        "when %p == XXX00001: mov %o2.0, %r0; set %p = ZZZZ0010;\n"
        "when %p == XXXX0010: add %r0, %r0, #1; set %p = ZZZZ0000;\n"
        "when %p == XXX10001: halt;\n"
        ".pe 1\n" + def("OBASE", kStreamOutBase) +
        "when %p == XXXX0000: uge %p4, %r0, %r1; set %p = ZZZZ0001;\n"
        "when %p == XXX00001: add %o1.0, %r0, OBASE; set %p = ZZZZ0010;\n"
        "when %p == XXXX0010: add %r0, %r0, #1; set %p = ZZZZ0000;\n"
        "when %p == XXX10001: halt;\n";
    w.program = assemble(source);

    FabricBuilder builder(w.program.params, 2);
    builder.addWritePortSplit(1, 1, 0, 2); // addr from PE 1, data from PE 0
    builder.setInitialRegs(0, {0, sizes.streamCount});
    builder.setInitialRegs(1, {0, sizes.streamCount});
    w.config = builder.build();
    w.workerPe = 0;

    const unsigned count = sizes.streamCount;
    w.preload = [](Memory &) {};
    w.check = [count](const Memory &memory) -> std::string {
        for (unsigned i = 0; i < count; ++i) {
            auto err = checkWord(memory, kStreamOutBase + i, i,
                                 "stream output");
            if (!err.empty())
                return err;
        }
        return "";
    };
    return w;
}

// ---------------------------------------------------------------------------
// string_search — DFA scan for "MICRO" (3 PEs).
// ---------------------------------------------------------------------------

namespace {
constexpr Word kTextBase = 16;
constexpr Word kMatchOutBase = 4096;

std::vector<char>
buildText(const WorkloadSizes &sizes)
{
    // Random text over a small alphabet including the target letters,
    // with "MICRO" planted every so often.
    static const char alphabet[] = "MICROABCDEFGH ..";
    std::vector<char> text;
    Xorshift rng(0x5ea);
    while (text.size() < sizes.searchChars) {
        if (rng.below(64) == 0 && text.size() + 5 <= sizes.searchChars) {
            for (char c : {'M', 'I', 'C', 'R', 'O'})
                text.push_back(c);
        } else {
            text.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
        }
    }
    // Pad to a whole number of words.
    while (text.size() % 4 != 0)
        text.push_back(' ');
    return text;
}

} // namespace

Workload
makeStringSearch(const WorkloadSizes &sizes)
{
    Workload w;
    w.name = "string_search";
    w.description = "DFA scan for the string \"MICRO\" over a byte "
                    "stream (3 PEs: word fetch -> byte split -> DFA)";

    const std::vector<char> text = buildText(sizes);
    const unsigned num_words = static_cast<unsigned>(text.size() / 4);

    std::string source =
        ".pe 0\n" + streamerPe(def("SBASE", kTextBase)) +
        ".pe 1\n"
        // Unpacks each word into 4 bytes, LSB first.
        "when %p == XXXX0000 with %i0.0: mov %r0, %i0; deq %i0; "
        "set %p = ZZZZ0001;\n"
        "when %p == XXXX0001: and %o0.0, %r0, #255; set %p = ZZZZ0010;\n"
        "when %p == XXXX0010: srl %r0, %r0, #8; set %p = ZZZZ0011;\n"
        "when %p == XXXX0011: and %o0.0, %r0, #255; set %p = ZZZZ0100;\n"
        "when %p == XXXX0100: srl %r0, %r0, #8; set %p = ZZZZ0101;\n"
        "when %p == XXXX0101: and %o0.0, %r0, #255; set %p = ZZZZ0110;\n"
        "when %p == XXXX0110: srl %r0, %r0, #8; set %p = ZZZZ0111;\n"
        "when %p == XXXX0111: and %o0.0, %r0, #255; set %p = ZZZZ0000;\n"
        "when %p == XXXX0000 with %i0.1: mov %o0.1, #0; deq %i0; "
        "set %p = ZZZZ1000;\n"
        "when %p == XXXX1000: halt;\n"
        ".pe 2\n" + def("OBASE", kMatchOutBase) +
        // DFA over predicate state: p2..p0 = DFA state (0-5 used),
        // p4p3 = phase (A=00 compute p6, B=01 compute p7, C=10
        // transition+emit, D=11 store-address + advance), p5 =
        // sub-phase of D, p6 = char == 'M', p7 = char == expected.
        "when %p == XX000XXX with %i0.0: eq %p6, %i0, 'M'; "
        "set %p = ZZZZ1ZZZ;\n"
        "when %p == XXX01000: eq %p7, %i0, 'M'; set %p = ZZZ10ZZZ;\n"
        "when %p == XXX01001: eq %p7, %i0, 'I'; set %p = ZZZ10ZZZ;\n"
        "when %p == XXX01010: eq %p7, %i0, 'C'; set %p = ZZZ10ZZZ;\n"
        "when %p == XXX01011: eq %p7, %i0, 'R'; set %p = ZZZ10ZZZ;\n"
        "when %p == XXX01100: eq %p7, %i0, 'O'; set %p = ZZZ10ZZZ;\n"
        "when %p == 1XX10000: mov %o2.0, #0; set %p = ZZZ11001;\n"
        "when %p == 1XX10001: mov %o2.0, #0; set %p = ZZZ11010;\n"
        "when %p == 1XX10010: mov %o2.0, #0; set %p = ZZZ11011;\n"
        "when %p == 1XX10011: mov %o2.0, #0; set %p = ZZZ11100;\n"
        "when %p == 1XX10100: mov %o2.0, #1; set %p = ZZZ11000;\n"
        "when %p == 01X10XXX: mov %o2.0, #0; set %p = ZZZ11001;\n"
        "when %p == 00X10XXX: mov %o2.0, #0; set %p = ZZZ11000;\n"
        "when %p == XX011XXX: add %o1.0, %r4, OBASE; set %p = ZZ1ZZZZZ;\n"
        "when %p == XX111XXX: add %r4, %r4, #1; deq %i0; "
        "set %p = ZZ000ZZZ;\n"
        "when %p == XX000XXX with %i0.1: halt;\n";
    w.program = assemble(source);

    FabricBuilder builder(w.program.params, 3);
    builder.addReadPort(0, 0, 0);
    builder.connect(0, 3, 1, 0);
    builder.connect(1, 0, 2, 0);
    builder.addWritePort(2, 1, 2);
    builder.setInitialRegs(0, streamerRegs(num_words));
    w.config = builder.build();
    w.workerPe = 2;

    w.preload = [text](Memory &memory) {
        for (std::size_t word = 0; word * 4 < text.size(); ++word) {
            Word packed = 0;
            for (unsigned byte = 0; byte < 4; ++byte) {
                packed |= static_cast<Word>(
                              static_cast<unsigned char>(
                                  text[word * 4 + byte]))
                          << (8 * byte);
            }
            memory.write(kTextBase + static_cast<Word>(word), packed);
        }
    };
    w.check = [text](const Memory &memory) -> std::string {
        const std::string target = "MICRO";
        unsigned state = 0;
        for (std::size_t i = 0; i < text.size(); ++i) {
            Word expected;
            if (text[i] == target[state]) {
                ++state;
                expected = state == 5 ? 1 : 0;
                if (state == 5)
                    state = 0;
            } else {
                state = text[i] == 'M' ? 1 : 0;
                expected = 0;
            }
            auto err = checkWord(memory,
                                 kMatchOutBase + static_cast<Word>(i),
                                 expected, "string_search match bit");
            if (!err.empty())
                return err;
        }
        return "";
    };
    return w;
}

// ---------------------------------------------------------------------------
// udiv — software shift-subtract division (2 PEs).
// ---------------------------------------------------------------------------

namespace {
constexpr Word kUdivNumBase = 16;
constexpr Word kUdivDenBase = 4096;
constexpr Word kUdivOutBase = 8192;
} // namespace

Workload
makeUdiv(const WorkloadSizes &sizes)
{
    Workload w;
    w.name = "udiv";
    w.description = "Unsigned division macro using clz-normalized "
                    "shift-subtract (2 PEs; the ISA omits a divide "
                    "instruction, Section 2.2)";

    std::string source =
        ".pe 0\n" + def("NBASE", kUdivNumBase) + def("DBASE", kUdivDenBase) +
        def("OBASE", kUdivOutBase) +
        // Decoupled streamer: the responder forwards (numerator,
        // denominator) tokens as they return from memory; the
        // requester interleaves N/D address generation with the
        // quotient store-address stream (o1), tagging the final
        // denominator request so the responder can emit EOF and halt.
        "when %p == X0XXXXXX with %i0.0: mov %o3.0, %i0; deq %i0;\n"
        "when %p == X0XXXXXX with %i0.1: mov %o3.0, %i0; deq %i0; "
        "set %p = Z1ZZZZZZ;\n"
        "when %p == X1XXXXXX: mov %o3.1, #0; set %p = 10ZZZZZZ;\n"
        // Halt only once the requester has parked in its dead state
        // (110) — it still owes the final quotient's store address
        // when the last response overtakes it.
        "when %p == 1XXXX110: halt;\n"
        // Requester on p2 p1 p0 (r2 = pairs - 1).
        "when %p == XXXXX000: ult %p4, %r0, %r2; set %p = ZZZZZ001;\n"
        "when %p == XXXXX001: add %o0.0, %r0, NBASE; set %p = ZZZZZ010;\n"
        "when %p == XXX1X010: add %o0.0, %r0, DBASE; set %p = ZZZZZ011;\n"
        "when %p == XXX0X010: add %o0.1, %r0, DBASE; set %p = ZZZZZ101;\n"
        "when %p == XXXXX011: add %o1.0, %r0, OBASE; set %p = ZZZZZ100;\n"
        "when %p == XXXXX100: add %r0, %r0, #1; set %p = ZZZZZ000;\n"
        "when %p == XXXXX101: add %o1.0, %r0, OBASE; set %p = ZZZZZ110;\n"
        ".pe 1\n"
        // r0 = remainder, r1 = divisor, r2 = quotient, r3 = bit index,
        // p4 = loop done (k < 0), p5 = subtract this bit.
        "when %p == XXXX0000 with %i0.0: mov %r0, %i0; deq %i0; "
        "set %p = ZZZZ0001;\n"
        "when %p == XXXX0001 with %i0.0: mov %r1, %i0; deq %i0; "
        "set %p = ZZZZ0010;\n"
        "when %p == XXXX0010: clz %r6, %r0; set %p = ZZZZ0011;\n"
        "when %p == XXXX0011: clz %r7, %r1; set %p = ZZZZ0100;\n"
        "when %p == XXXX0100: sub %r3, %r7, %r6; set %p = ZZZZ0101;\n"
        "when %p == XXXX0101: mov %r2, #0; set %p = ZZZZ0110;\n"
        "when %p == XXXX0110: slt %p4, %r3, #0; set %p = ZZZZ0111;\n"
        "when %p == XXX10111: mov %o2.0, %r2; set %p = ZZZZ0000;\n"
        "when %p == XXX00111: sll %r6, %r1, %r3; set %p = ZZZZ1000;\n"
        "when %p == XXXX1000: uge %p5, %r0, %r6; set %p = ZZZZ1001;\n"
        "when %p == XXXX1001: sll %r2, %r2, #1; set %p = ZZZZ1010;\n"
        "when %p == XX1X1010: sub %r0, %r0, %r6; set %p = ZZZZ1011;\n"
        "when %p == XXXX1011: or %r2, %r2, #1; set %p = ZZZZ1100;\n"
        "when %p == XX0X1010: nop; set %p = ZZZZ1100;\n"
        "when %p == XXXX1100: sub %r3, %r3, #1; set %p = ZZZZ0110;\n"
        "when %p == XXXX0000 with %i0.1: halt;\n";
    w.program = assemble(source);

    FabricBuilder builder(w.program.params, 2);
    builder.addReadPort(0, 0, 0);
    builder.connect(0, 3, 1, 0);
    builder.addWritePortSplit(0, 1, 1, 2); // addr from PE 0, data from PE 1
    builder.setInitialRegs(0, {0, 0, sizes.udivPairs - 1});
    w.config = builder.build();
    w.workerPe = 1;

    std::vector<Word> nums, dens;
    Xorshift rng(0xd1f);
    for (unsigned i = 0; i < sizes.udivPairs; ++i) {
        nums.push_back(rng.next());
        dens.push_back((rng.next() & 0xffff) + 1); // never zero
    }

    w.preload = [nums, dens](Memory &memory) {
        for (std::size_t i = 0; i < nums.size(); ++i) {
            memory.write(kUdivNumBase + static_cast<Word>(i), nums[i]);
            memory.write(kUdivDenBase + static_cast<Word>(i), dens[i]);
        }
    };
    w.check = [nums, dens](const Memory &memory) -> std::string {
        for (std::size_t i = 0; i < nums.size(); ++i) {
            auto err = checkWord(memory,
                                 kUdivOutBase + static_cast<Word>(i),
                                 nums[i] / dens[i], "udiv quotient");
            if (!err.empty())
                return err;
        }
        return "";
    };
    return w;
}

std::vector<Workload>
allWorkloads(const WorkloadSizes &sizes)
{
    return {
        makeBst(sizes),       makeGcd(sizes),        makeMean(sizes),
        makeArgMax(sizes),    makeDotProduct(sizes), makeFilter(sizes),
        makeMerge(sizes),     makeStream(sizes),     makeStringSearch(sizes),
        makeUdiv(sizes),
    };
}

} // namespace tia
