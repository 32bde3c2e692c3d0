#include "core/cuda_emitter.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "compiler/thread_mapping.h"
#include "support/logging.h"
#include "support/strings.h"

namespace astitch {

namespace {

/** C identifier for a node's value. */
std::string
valueName(const Graph &graph, NodeId id)
{
    std::string name = graph.node(id).name();
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return "v_" + name;
}

/** The scalar C expression computing one element of @p node. */
std::string
elementExpr(const Graph &graph, const Node &node,
            const std::vector<std::string> &operand)
{
    switch (node.kind()) {
      case OpKind::Add:
        return strCat(operand[0], " + ", operand[1]);
      case OpKind::Sub:
        return strCat(operand[0], " - ", operand[1]);
      case OpKind::Mul:
        return strCat(operand[0], " * ", operand[1]);
      case OpKind::Div:
        return strCat(operand[0], " / ", operand[1]);
      case OpKind::Maximum:
        return strCat("fmaxf(", operand[0], ", ", operand[1], ")");
      case OpKind::Minimum:
        return strCat("fminf(", operand[0], ", ", operand[1], ")");
      case OpKind::Neg:
        return strCat("-(", operand[0], ")");
      case OpKind::Abs:
        return strCat("fabsf(", operand[0], ")");
      case OpKind::CompareGT:
        return strCat("(", operand[0], " > ", operand[1],
                      ") ? 1.0f : 0.0f");
      case OpKind::Select:
        return strCat("(", operand[0], " != 0.0f) ? ", operand[1],
                      " : ", operand[2]);
      case OpKind::Tanh:
        return strCat("tanhf(", operand[0], ")");
      case OpKind::Exp:
        return strCat("__expf(", operand[0], ")");
      case OpKind::Log:
        return strCat("__logf(", operand[0], ")");
      case OpKind::Power:
        return strCat("powf(", operand[0], ", ",
                      strFixed(node.attrs().exponent, 1), "f)");
      case OpKind::Sqrt:
        return strCat("sqrtf(", operand[0], ")");
      case OpKind::Rsqrt:
        return strCat("rsqrtf(", operand[0], ")");
      case OpKind::Sigmoid:
        return strCat("1.0f / (1.0f + __expf(-(", operand[0], ")))");
      case OpKind::Erf:
        return strCat("erff(", operand[0], ")");
      // A concat reads through every source: each operand covers one
      // contiguous element range of the result.
      case OpKind::Concat: {
        if (operand.size() == 1)
            return operand[0];
        std::string expr = operand.back();
        std::int64_t prefix = 0;
        for (std::size_t k = 0; k + 1 < operand.size(); ++k)
            prefix += graph.node(node.operands()[k]).shape().numElements();
        for (std::size_t k = operand.size() - 1; k-- > 0;) {
            expr = strCat("(elem < ", prefix, ") ? ", operand[k], " : (",
                          expr, ")");
            prefix -=
                graph.node(node.operands()[k]).shape().numElements();
        }
        return expr;
      }
      // Data movement reads through an index remap; the value itself is
      // the operand.
      case OpKind::Broadcast:
      case OpKind::Reshape:
      case OpKind::Transpose:
      case OpKind::Slice:
      case OpKind::Pad:
      case OpKind::Gather:
        return operand[0];
      default:
        panic("elementExpr on non-elementwise op ", node.name());
    }
}

/** Writer with indentation. */
class SourceWriter
{
  public:
    void
    line(const std::string &text = "")
    {
        if (!text.empty())
            oss_ << std::string(indent_ * 4, ' ') << text;
        oss_ << '\n';
    }

    void push() { ++indent_; }
    void pop() { --indent_; }

    std::string str() const { return oss_.str(); }

  private:
    std::ostringstream oss_;
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
    std::ostringstream stub;
    stub << plan.name << "<<<" << plan.launch.grid << ", "
         << plan.launch.block << ", " << plan.smem_per_block
         << ">>>(...); // -maxrregcount=" << plan.regs_per_thread;
    return stub.str();
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

    SourceWriter w;
    w.line(strCat("// Generated by AStitch stitch codegen for cluster "
                  "of ",
                  cluster.nodes.size(), " ops."));
    w.line(strCat("// Device: ", spec.name, "; wave capacity ",
                  launch.blocks_per_wave, " blocks."));
    w.line("#include <cuda_runtime.h>");
    w.line();
    if (plan.num_global_barriers > 0) {
        emitGridBarrierHelper(w);
        w.line();
    }

    // ---- Access summary: the structured per-op index expressions the
    // kernel-access verifier checked this emission against. ----
    if (!plan.accesses.empty()) {
        w.line(strCat("// access summary (", plan.accesses.size(),
                      " entries; index = offset + c_b*b + c_t*t + "
                      "c_i*i + c_th*th):"));
        for (const OpAccess &access : plan.accesses)
            w.line(strCat("//   op", access.op_index, ": ",
                          access.toString()));
        w.line();
    }

    // ---- Signature. ----
    std::vector<std::string> params;
    for (const KernelInput &in : plan.inputs) {
        params.push_back(strCat("const float *__restrict__ ",
                                valueName(graph, in.node)));
    }
    for (NodeId out : plan.outputs) {
        params.push_back(strCat("float *__restrict__ ",
                                valueName(graph, out), "_out"));
    }
    if (memory.global_scratch_bytes > 0)
        params.push_back("float *__restrict__ global_scratch");
    if (plan.num_global_barriers > 0)
        params.push_back("int *barrier_state");

    w.line(strCat("extern \"C\" __global__ void"));
    w.line(strCat("__launch_bounds__(", plan.launch.block, ", ",
                  std::max(1, static_cast<int>(
                                  launch.blocks_per_wave /
                                  std::max(1, spec.num_sms))),
                  ") // regs/thread bound (assume-relax-apply): ",
                  plan.regs_per_thread));
    w.line(strCat(plan.name, "(", strJoin(params, ", "), ")"));
    w.line("{");
    w.push();

    // ---- Shared-memory arena. ----
    if (plan.smem_per_block > 0) {
        w.line(strCat("__shared__ float smem[",
                      (plan.smem_per_block + 3) / 4,
                      "]; // planner: ", plan.smem_per_block,
                      " B/block after liveness reuse"));
    }

    // Scheme per node for quick lookup.
    const SchemeMap &schemes = memory.schemes;

    // Plan-side structure this emission implements: op positions, the
    // planner's arena slots, and the structural barrier schedule. Every
    // barrier below is emitted from plan.barriers (each point once,
    // even when dominant merging is off and an op renders in several
    // groups), so the text and the metadata agree by construction —
    // and the emitted-source analyzer can hold them to that.
    std::map<NodeId, int> op_pos;
    for (std::size_t i = 0; i < plan.ops.size(); ++i)
        op_pos.emplace(plan.ops[i].node, static_cast<int>(i));
    std::unordered_map<NodeId, const SharedSlot *> slot_of;
    for (const SharedSlot &slot : plan.shared_slots)
        slot_of.emplace(slot.node, &slot);
    const std::set<NodeId> outputs(plan.outputs.begin(), plan.outputs.end());
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
        w.line(strCat("// ---- group ", g, ": dominant ", dom.name(),
                      ", logical launch ",
                      sched.mapping.launch.toString(),
                      sched.proactively_adapted
                          ? " (proactively adapted)"
                          : "",
                      " ----"));

        // Vertical packing: each physical block walks its logical tasks.
        w.line(strCat("for (long task = blockIdx.x; task < ", bound,
                      "; task += gridDim.x) { // vertical packing x",
                      tasks,
                      padded ? ", padded for uniform barrier trips"
                             : ""));
        w.push();
        bool guard_open = false;
        const auto open_guard = [&] {
            if (padded && !guard_open) {
                w.line(strCat("if (task < ", extent,
                              ") { // logical task extent"));
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
            const std::string value = valueName(graph, id);
            std::vector<std::string> operands;
            for (NodeId op : node.operands()) {
                std::string ref = valueName(graph, op);
                if (!cluster.contains(op)) {
                    // Kernel input: a coalesced global load.
                    ref = strCat(ref, "[elem]");
                }
                // A producer that is itself a kernel output is
                // materialized to its _out buffer, not staged through
                // the scheme buffers — consumers keep the live register
                // (Local reuse), matching the plan's access summaries.
                const bool op_is_output = outputs.count(op) > 0;
                const auto scheme = schemes.find(op);
                if (scheme != schemes.end() && !op_is_output) {
                    if (scheme->second == StitchScheme::Regional)
                        ref = strCat(ref, "_smem[threadIdx.x % ",
                                     std::max<std::int64_t>(
                                         1, sched.mapping.rows_per_block),
                                     "]");
                    else if (scheme->second == StitchScheme::Global)
                        ref = strCat(ref, "_g[task]");
                }
                operands.push_back(ref);
            }

            open_guard();
            if (node.kind() == OpKind::Gather &&
                node.operands().size() >= 2) {
                // A gather reads through its index tensor:
                // out[e] = table[(long)indices[e]].
                w.line(strCat("const long ", value, "_idx = (long)",
                              operands[1], "; // gather indices"));
                const NodeId table = node.operands()[0];
                std::string table_ref = operands[0];
                if (!cluster.contains(table) &&
                    schemes.find(table) == schemes.end()) {
                    table_ref = strCat(valueName(graph, table), "[",
                                       value, "_idx]");
                }
                w.line(strCat("float ", value, " = ", table_ref, ";"));
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
                w.line(strCat("// ", node.name(), ": ",
                              info.is_row_reduce ? "row" : "column",
                              "-reduce <", info.rows, ",", info.cols,
                              ">, ", sched.mapping.rows_per_block,
                              " row(s)/block",
                              sched.mapping.split_factor > 1
                                  ? strCat(", split x",
                                           sched.mapping.split_factor)
                                  : ""));
                w.line(strCat("float ", value, " = ", init, ";"));
                w.line(strCat("for (long c = threadIdx.x; c < ",
                              info.cols, "; c += blockDim.x) {"));
                w.push();
                w.line(strCat("float acc = ", value, ", x = ",
                              operands[0], ";"));
                w.line(strCat(value, " = ", combine, ";"));
                w.pop();
                w.line("}");
                w.line(strCat(value, " = blockReduce(", value,
                              ", smem); // tree reduce, 2 sync phases"));
                if (node.kind() == OpKind::ReduceMean) {
                    w.line(strCat(value, " /= ", info.cols, ".0f;"));
                }
                if (sched.mapping.uses_atomics) {
                    w.line(strCat("atomicAdd(&", value,
                                  "_partial[task], ", value,
                                  "); // cross-block finalize"));
                }
            } else if (!isSource(node.kind())) {
                w.line(strCat("float ", value, " = ",
                              elementExpr(graph, node, operands), ";"));
            }

            // Buffer the result per its stitching scheme.
            const auto scheme = schemes.find(id);
            const bool is_output = outputs.count(id) > 0;
            if (is_output) {
                w.line(strCat(value, "_out[task * blockDim.x + "
                              "threadIdx.x] = ",
                              value, ";"));
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
                    w.line(strCat("float *", value, "_smem = smem + ",
                                  offset_words,
                                  "; // regional buffer, planner slot, ",
                                  words, " floats/block"));
                    w.line(strCat(value, "_smem[threadIdx.x % ", words,
                                  "] = ", value, ";"));
                } else if (scheme->second == StitchScheme::Global) {
                    w.line(strCat("float *", value,
                                  "_g = global_scratch + ",
                                  scratch_offset, ";"));
                    w.line(strCat(value, "_g[task * blockDim.x + "
                                  "threadIdx.x] = ",
                                  value, ";"));
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
                    w.line(strCat(
                        "grid_barrier(barrier_state + ",
                        2 * device_barriers_emitted,
                        ", barrier_state + ",
                        2 * device_barriers_emitted + 1,
                        "); // global scheme boundary"));
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
    emission.source = w.str();
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
