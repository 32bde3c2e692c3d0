#include "core/cuda_emitter.h"

#include <algorithm>
#include <cctype>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "compiler/thread_mapping.h"
#include "support/logging.h"
#include "support/strings.h"

namespace astitch {

namespace {

// Reservation per kernel, sized from the emitted zoo and Sec 6.4.1
// kernels so one allocation usually holds the whole text.
constexpr std::size_t kSourceBytesFixed = 1024;
constexpr std::size_t kSourceBytesPerAccess = 128;
constexpr std::size_t kSourceBytesPerOp = 256;

/**
 * C identifiers ("v_<name>", non-alphanumerics as '_') of the nodes one
 * kernel mentions, each built once per kernel.
 */
class ValueNames
{
  public:
    explicit ValueNames(const Graph &graph) : graph_(graph) {}

    const std::string &
    operator()(NodeId id)
    {
        auto [it, inserted] = names_.try_emplace(id);
        if (inserted) {
            const std::string &name = graph_.node(id).name();
            std::string &ident = it->second;
            ident.reserve(name.size() + 2);
            ident += "v_";
            for (char c : name) {
                ident += std::isalnum(static_cast<unsigned char>(c))
                             ? c
                             : '_';
            }
        }
        return it->second;
    }

  private:
    const Graph &graph_;
    std::unordered_map<NodeId, std::string> names_;
};

/**
 * Append the scalar C expression computing one element of @p node;
 * @p operand(k) appends the reference to its k-th operand. Every
 * expression names its operands in order, each once.
 */
template <typename AppendOperand>
void
appendElementExpr(std::string &out, const Graph &graph, const Node &node,
                  AppendOperand &&operand)
{
    const auto unary = [&](std::string_view open, std::string_view close) {
        out += open;
        operand(0);
        out += close;
    };
    const auto binary = [&](std::string_view open, std::string_view mid,
                            std::string_view close) {
        out += open;
        operand(0);
        out += mid;
        operand(1);
        out += close;
    };
    switch (node.kind()) {
      case OpKind::Add:
        return binary("", " + ", "");
      case OpKind::Sub:
        return binary("", " - ", "");
      case OpKind::Mul:
        return binary("", " * ", "");
      case OpKind::Div:
        return binary("", " / ", "");
      case OpKind::Maximum:
        return binary("fmaxf(", ", ", ")");
      case OpKind::Minimum:
        return binary("fminf(", ", ", ")");
      case OpKind::Neg:
        return unary("-(", ")");
      case OpKind::Abs:
        return unary("fabsf(", ")");
      case OpKind::CompareGT:
        return binary("(", " > ", ") ? 1.0f : 0.0f");
      case OpKind::Select:
        binary("(", " != 0.0f) ? ", " : ");
        operand(2);
        return;
      case OpKind::Tanh:
        return unary("tanhf(", ")");
      case OpKind::Exp:
        return unary("__expf(", ")");
      case OpKind::Log:
        return unary("__logf(", ")");
      case OpKind::Power:
        unary("powf(", ", ");
        strAppend(out, strFixed(node.attrs().exponent, 1), "f)");
        return;
      case OpKind::Sqrt:
        return unary("sqrtf(", ")");
      case OpKind::Rsqrt:
        return unary("rsqrtf(", ")");
      case OpKind::Sigmoid:
        return unary("1.0f / (1.0f + __expf(-(", ")))");
      case OpKind::Erf:
        return unary("erff(", ")");
      // A concat reads through every source: each operand covers one
      // contiguous element range of the result, selected by a chain of
      // (elem < prefix) tests nested right to left.
      case OpKind::Concat: {
        const std::size_t n = node.operands().size();
        std::int64_t prefix = 0;
        for (std::size_t k = 0; k + 1 < n; ++k) {
            prefix += graph.node(node.operands()[k]).shape().numElements();
            strAppend(out, "(elem < ", prefix, ") ? ");
            operand(k);
            out += " : (";
        }
        operand(n - 1);
        out.append(n - 1, ')');
        return;
      }
      // Data movement reads through an index remap; the value itself is
      // the operand.
      case OpKind::Broadcast:
      case OpKind::Reshape:
      case OpKind::Transpose:
      case OpKind::Slice:
      case OpKind::Pad:
      case OpKind::Gather:
        return operand(0);
      default:
        panic("elementExpr on non-elementwise op ", node.name());
    }
}

/** Writer with indentation, appending straight into one string. */
class SourceWriter
{
  public:
    explicit SourceWriter(std::string &out) : out_(out) {}

    /** One indented line of @p pieces (strings, chars, integers);
     * line() with no pieces is an empty, unindented line. */
    template <typename... Pieces>
    void
    line(const Pieces &...pieces)
    {
        if constexpr (sizeof...(pieces) > 0) {
            indent();
            strAppend(out_, pieces...);
        }
        out_ += '\n';
    }

    /** Start a line the caller appends to the buffer in place; end it
     * with close(). */
    void open() { indent(); }

    void close() { out_ += '\n'; }

    void push() { ++indent_; }
    void pop() { --indent_; }

  private:
    void indent() { out_.append(static_cast<std::size_t>(indent_) * 4, ' '); }

    std::string &out_;
    int indent_ = 0;
};

/** The classic lock-free inter-block barrier (Xiao & Feng). */
void
emitGridBarrierHelper(SourceWriter &w)
{
    w.line("// Lock-free inter-block barrier [Xiao & Feng, IPDPS'10].");
    w.line("// Legal only when gridDim.x <= blocks-per-wave (Sec 3.2.3);");
    w.line("// the launch configurator guarantees that bound.");
    w.line("__device__ void");
    w.line("grid_barrier(volatile int *arrive, volatile int *depart)");
    w.line("{");
    w.push();
    w.line("__syncthreads();");
    w.line("if (threadIdx.x == 0) {");
    w.push();
    w.line("atomicAdd((int *)arrive, 1);");
    w.line("if (blockIdx.x == 0) {");
    w.push();
    w.line("while (*arrive < gridDim.x) { }");
    w.line("*depart = gridDim.x;");
    w.pop();
    w.line("}");
    w.line("while (*depart < gridDim.x) { }");
    w.pop();
    w.line("}");
    w.line("__syncthreads();");
    w.pop();
    w.line("}");
}

/** The host-side documentation launch statement for @p plan. */
std::string
makeLaunchStub(const KernelPlan &plan)
{
    std::string stub;
    strAppend(stub, plan.name, "<<<", plan.launch.grid, ", ",
              plan.launch.block, ", ", plan.smem_per_block,
              ">>>(...); // -maxrregcount=", plan.regs_per_thread);
    return stub;
}

} // namespace

CudaEmission
renderStitchKernelCuda(const Graph &graph, const Cluster &cluster,
                       const GpuSpec &spec, const KernelPlan &plan,
                       const DominantAnalysis &analysis,
                       const std::vector<GroupSchedule> &schedules,
                       const MemoryPlan &memory, const LaunchConfig &launch)
{
    CudaEmission emission;
    emission.kernel_name = plan.name;

    // The whole kernel is appended into this one string.
    std::string &out = emission.source;
    out.reserve(kSourceBytesFixed +
                kSourceBytesPerAccess * plan.accesses.size() +
                kSourceBytesPerOp * plan.ops.size());
    SourceWriter w(out);
    ValueNames name(graph);

    w.line("// Generated by AStitch stitch codegen for cluster of ",
           cluster.nodes.size(), " ops.");
    w.line("// Device: ", spec.name, "; wave capacity ",
           launch.blocks_per_wave, " blocks.");
    w.line("#include <cuda_runtime.h>");
    w.line();
    if (plan.num_global_barriers > 0) {
        emitGridBarrierHelper(w);
        w.line();
    }

    // ---- Access summary: the structured per-op index expressions the
    // kernel-access verifier checked this emission against. ----
    if (!plan.accesses.empty()) {
        w.line("// access summary (", plan.accesses.size(),
               " entries; index = offset + c_b*b + c_t*t + c_i*i + "
               "c_th*th):");
        for (const OpAccess &access : plan.accesses) {
            w.open();
            strAppend(out, "//   op", access.op_index, ": ");
            access.appendTo(out);
            w.close();
        }
        w.line();
    }

    // ---- Signature. ----
    w.line("extern \"C\" __global__ void");
    w.line("__launch_bounds__(", plan.launch.block, ", ",
           std::max(1, static_cast<int>(launch.blocks_per_wave /
                                        std::max(1, spec.num_sms))),
           ") // regs/thread bound (assume-relax-apply): ",
           plan.regs_per_thread);
    w.open();
    strAppend(out, plan.name, '(');
    std::string_view sep;
    for (const KernelInput &in : plan.inputs) {
        strAppend(out, sep, "const float *__restrict__ ", name(in.node));
        sep = ", ";
    }
    for (NodeId id : plan.outputs) {
        strAppend(out, sep, "float *__restrict__ ", name(id), "_out");
        sep = ", ";
    }
    if (memory.global_scratch_bytes > 0) {
        strAppend(out, sep, "float *__restrict__ global_scratch");
        sep = ", ";
    }
    if (plan.num_global_barriers > 0)
        strAppend(out, sep, "int *barrier_state");
    out += ')';
    w.close();
    w.line("{");
    w.push();

    // ---- Shared-memory arena. ----
    if (plan.smem_per_block > 0) {
        w.line("__shared__ float smem[", (plan.smem_per_block + 3) / 4,
               "]; // planner: ", plan.smem_per_block,
               " B/block after liveness reuse");
    }

    // Scheme per node for quick lookup.
    const SchemeMap &schemes = memory.schemes;

    // Plan-side structure this emission implements: op positions, the
    // planner's arena slots, and the structural barrier schedule. Every
    // barrier below is emitted from plan.barriers (each point once,
    // even when dominant merging is off and an op renders in several
    // groups), so the text and the metadata agree by construction —
    // and the emitted-source analyzer can hold them to that.
    std::unordered_map<NodeId, int> op_pos;
    op_pos.reserve(plan.ops.size());
    for (std::size_t i = 0; i < plan.ops.size(); ++i)
        op_pos.emplace(plan.ops[i].node, static_cast<int>(i));
    std::unordered_map<NodeId, const SharedSlot *> slot_of;
    for (const SharedSlot &slot : plan.shared_slots)
        slot_of.emplace(slot.node, &slot);
    const std::unordered_set<NodeId> outputs(plan.outputs.begin(),
                                             plan.outputs.end());
    // Indices into plan.barriers per schedule position, ascending.
    std::vector<std::vector<std::size_t>> barriers_at(plan.ops.size());
    for (std::size_t b = 0; b < plan.barriers.size(); ++b) {
        const int at = plan.barriers[b].after_op;
        if (at >= 0 && at < static_cast<int>(plan.ops.size()))
            barriers_at[at].push_back(b);
    }
    std::vector<bool> barriers_done(plan.barriers.size(), false);
    int device_barriers_emitted = 0;
    std::int64_t scratch_offset = 0;

    // ---- Emit groups in dominant order. ----
    std::vector<int> order(analysis.groups.size());
    for (std::size_t g = 0; g < order.size(); ++g)
        order[g] = static_cast<int>(g);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return analysis.groups[a].dominant <
               analysis.groups[b].dominant;
    });

    for (int g : order) {
        const DominantGroup &group = analysis.groups[g];
        const GroupSchedule &sched = schedules[g];
        const Node &dom = graph.node(group.dominant);

        // Pending device-wide barriers in this group: their task loop
        // must trip the same number of times in every block (the
        // inter-block barrier deadlocks otherwise), so its bound is
        // padded up to a multiple of the physical grid and the
        // per-task work — but not the barrier — is guarded.
        const auto pending_device_barrier = [&](NodeId id) {
            const auto p = op_pos.find(id);
            if (p == op_pos.end())
                return false;
            for (std::size_t b : barriers_at[p->second]) {
                if (plan.barriers[b].scope == BarrierScope::Device &&
                    !barriers_done[b]) {
                    return true;
                }
            }
            return false;
        };
        bool group_has_device_barrier = false;
        for (NodeId id : group.members)
            group_has_device_barrier |= pending_device_barrier(id);

        const std::int64_t tasks =
            std::max<std::int64_t>(1, sched.mapping.tasks_per_block);
        const std::int64_t extent = sched.mapping.launch.grid * tasks;
        const std::int64_t grid =
            std::max<std::int64_t>(1, plan.launch.grid);
        const bool padded =
            group_has_device_barrier && extent % grid != 0;
        const std::int64_t bound =
            padded ? (extent + grid - 1) / grid * grid : extent;

        w.line();
        w.line("// ---- group ", g, ": dominant ", dom.name(),
               ", logical launch <<<", sched.mapping.launch.grid, ", ",
               sched.mapping.launch.block, ">>>",
               sched.proactively_adapted ? " (proactively adapted)" : "",
               " ----");

        // Vertical packing: each physical block walks its logical tasks.
        w.line("for (long task = blockIdx.x; task < ", bound,
               "; task += gridDim.x) { // vertical packing x", tasks,
               padded ? ", padded for uniform barrier trips" : "");
        w.push();
        bool guard_open = false;
        const auto open_guard = [&] {
            if (padded && !guard_open) {
                w.line("if (task < ", extent, ") { // logical task extent");
                w.push();
                guard_open = true;
            }
        };
        const auto close_guard = [&] {
            if (guard_open) {
                w.pop();
                w.line("}");
                guard_open = false;
            }
        };
        open_guard();
        w.line("const long elem = task * blockDim.x + threadIdx.x;");
        w.line("(void)elem;");

        for (NodeId id : group.members) {
            const Node &node = graph.node(id);
            const std::string &value = name(id);

            // Append the reference to operand @p k: a kernel input is a
            // coalesced global load. A producer that is itself a kernel
            // output is materialized to its _out buffer, not staged
            // through the scheme buffers — consumers keep the live
            // register (Local reuse), matching the plan's access
            // summaries.
            const auto operand = [&](std::size_t k) {
                const NodeId op = node.operands()[k];
                out += name(op);
                if (!cluster.contains(op))
                    out += "[elem]";
                const auto scheme = schemes.find(op);
                if (scheme == schemes.end() || outputs.count(op) > 0)
                    return;
                if (scheme->second == StitchScheme::Regional) {
                    strAppend(out, "_smem[threadIdx.x % ",
                              std::max<std::int64_t>(
                                  1, sched.mapping.rows_per_block),
                              ']');
                } else if (scheme->second == StitchScheme::Global) {
                    out += "_g[task]";
                }
            };

            open_guard();
            if (node.kind() == OpKind::Gather &&
                node.operands().size() >= 2) {
                // A gather reads through its index tensor:
                // out[e] = table[(long)indices[e]].
                w.open();
                strAppend(out, "const long ", value, "_idx = (long)");
                operand(1);
                out += "; // gather indices";
                w.close();
                const NodeId table = node.operands()[0];
                w.open();
                strAppend(out, "float ", value, " = ");
                if (!cluster.contains(table) &&
                    schemes.find(table) == schemes.end()) {
                    strAppend(out, name(table), '[', value, "_idx]");
                } else {
                    operand(0);
                }
                out += ';';
                w.close();
            } else if (isReduce(node.kind())) {
                const ReduceInfo info = analyzeReduce(graph, id);
                const char *combine =
                    node.kind() == OpKind::ReduceMax   ? "fmaxf(acc, x)"
                    : node.kind() == OpKind::ReduceMin ? "fminf(acc, x)"
                                                       : "acc + x";
                const char *init =
                    node.kind() == OpKind::ReduceMax   ? "-INFINITY"
                    : node.kind() == OpKind::ReduceMin ? "INFINITY"
                                                       : "0.0f";
                w.open();
                strAppend(out, "// ", node.name(), ": ",
                          info.is_row_reduce ? "row" : "column",
                          "-reduce <", info.rows, ',', info.cols, ">, ",
                          sched.mapping.rows_per_block, " row(s)/block");
                if (sched.mapping.split_factor > 1)
                    strAppend(out, ", split x", sched.mapping.split_factor);
                w.close();
                w.line("float ", value, " = ", init, ';');
                w.line("for (long c = threadIdx.x; c < ", info.cols,
                       "; c += blockDim.x) {");
                w.push();
                w.open();
                strAppend(out, "float acc = ", value, ", x = ");
                operand(0);
                out += ';';
                w.close();
                w.line(value, " = ", combine, ';');
                w.pop();
                w.line("}");
                w.line(value, " = blockReduce(", value,
                       ", smem); // tree reduce, 2 sync phases");
                if (node.kind() == OpKind::ReduceMean)
                    w.line(value, " /= ", info.cols, ".0f;");
                if (sched.mapping.uses_atomics) {
                    w.line("atomicAdd(&", value, "_partial[task], ", value,
                           "); // cross-block finalize");
                }
            } else if (!isSource(node.kind())) {
                w.open();
                strAppend(out, "float ", value, " = ");
                appendElementExpr(out, graph, node, operand);
                out += ';';
                w.close();
            }

            // Buffer the result per its stitching scheme.
            const auto scheme = schemes.find(id);
            const bool is_output = outputs.count(id) > 0;
            if (is_output) {
                w.line(value, "_out[task * blockDim.x + threadIdx.x] = ",
                       value, ';');
            } else if (scheme != schemes.end()) {
                if (scheme->second == StitchScheme::Regional) {
                    const auto found = slot_of.find(id);
                    const SharedSlot *slot =
                        found == slot_of.end() ? nullptr : found->second;
                    const std::int64_t offset_words =
                        slot ? slot->offset_bytes / 4 : 0;
                    const std::int64_t words =
                        slot ? std::max<std::int64_t>(
                                   1, slot->size_bytes / 4)
                             : 1;
                    w.line("float *", value, "_smem = smem + ",
                           offset_words,
                           "; // regional buffer, planner slot, ", words,
                           " floats/block");
                    w.line(value, "_smem[threadIdx.x % ", words, "] = ",
                           value, ';');
                } else if (scheme->second == StitchScheme::Global) {
                    w.line("float *", value, "_g = global_scratch + ",
                           scratch_offset, ';');
                    w.line(value, "_g[task * blockDim.x + threadIdx.x] = ",
                           value, ';');
                    scratch_offset += node.shape().numElements();
                }
            }

            // ---- Barriers the plan schedules after this op: regional
            // boundaries, arena-reuse separators, and device-wide
            // global-stitch boundaries (emitted outside the padding
            // guard so every block reaches them uniformly). ----
            const auto pos_it = op_pos.find(id);
            if (pos_it == op_pos.end())
                continue;
            for (std::size_t b : barriers_at[pos_it->second]) {
                const BarrierPoint &point = plan.barriers[b];
                if (barriers_done[b])
                    continue;
                barriers_done[b] = true;
                if (point.scope == BarrierScope::Block) {
                    const bool own_store =
                        plan.ops[pos_it->second].out_space ==
                        BufferSpace::Shared;
                    w.line(own_store
                               ? "__syncthreads(); // regional boundary"
                               : "__syncthreads(); // arena reuse "
                                 "separator");
                } else {
                    close_guard();
                    w.line("grid_barrier(barrier_state + ",
                           2 * device_barriers_emitted,
                           ", barrier_state + ",
                           2 * device_barriers_emitted + 1,
                           "); // global scheme boundary");
                    ++device_barriers_emitted;
                }
            }
        }
        close_guard();
        w.pop();
        w.line("}");
    }

    w.pop();
    w.line("}");
    emission.launch_stub = makeLaunchStub(plan);
    return emission;
}

CudaEmission
emitStitchKernelCuda(const Graph &graph, const Cluster &cluster,
                     const GpuSpec &spec, const AStitchOptions &options)
{
    StitchDiagnostics diag;
    const CompiledCluster compiled =
        compileStitchOp(graph, cluster, spec, options, &diag);
    panicIf(compiled.kernels.size() != 1,
            "stitch emission expects one kernel per cluster");
    const KernelPlan &plan = compiled.kernels[0];

    CudaEmission emission;
    emission.kernel_name = plan.name;
    emission.source = plan.cuda_source;
    emission.launch_stub = makeLaunchStub(plan);
    return emission;
}

} // namespace astitch
