#include "selftest.hpp"

#include <cstdio>
#include <initializer_list>

#include "evm/code_analysis.hpp"
#include "evm/interpreter.hpp"
#include "inputs.hpp"
#include "lifecycle.hpp"
#include "scratch_dir.hpp"
#include "state/exec_buffer.hpp"
#include "state/read_view.hpp"

namespace e2e {
namespace {

/// Calls the compute contract once; returns its output (empty on failure).
Bytes call_compute(std::uint64_t iters, bool reference) {
  bp::state::WorldState ws;
  ws.set_code(compute_contract_address(), compute_contract());
  bp::evm::CodeAnalysisCache cache;
  bp::evm::BlockContext block;
  block.analysis_cache = &cache;
  const bp::state::WorldStateView view(ws);
  bp::state::ExecBuffer buffer(view);
  bp::evm::TxContext tx;
  tx.origin = bp::Address::from_id(1);
  tx.gas_price = bp::U256{1};
  tx.block = &block;
  tx.analysis_cache = &cache;
  tx.use_reference_interpreter = reference;
  bp::evm::Message msg;
  msg.caller = tx.origin;
  msg.to = compute_contract_address();
  msg.data = compute_calldata(iters, iters % 2 == 1);
  msg.gas = 10'000'000;
  const bp::evm::CallResult r = bp::evm::execute_call(buffer, tx, msg);
  if (r.status != bp::evm::Status::kSuccess) return {};
  return r.output;
}

}  // namespace

int run_selftests(const std::string& db_root) {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  for (const std::uint64_t iters : {0, 1, 2, 37, 1000, 2400}) {
    const auto want = expected_accumulator(iters).to_be_bytes();
    const Bytes expected(want.begin(), want.end());
    for (const bool reference : {false, true}) {
      check(call_compute(iters, reference) == expected,
            "compute contract, " + std::to_string(iters) + " turns, " +
                (reference ? "reference" : "fast") +
                " interpreter returns the native accumulator");
    }
  }

  const ScratchDir db(db_root);
  std::size_t run_id = 0;
  auto chain = [&](const Inputs& in, Tracer* tracer) {
    ChainRun r = run_chain(in, db.fresh(run_id), tracer, tracer == nullptr);
    db.drop(run_id++);
    return r;
  };
  for (const Workload w :
       {Workload::kMainnet, Workload::kFeewar, Workload::kCompute}) {
    const std::string name = workload_name(w);
    const Inputs a = make_inputs(w, 11);
    const Inputs b = make_inputs(w, 11);
    check(a.digest == b.digest && a.arrivals == b.arrivals &&
              a.genesis->state_root() == b.genesis->state_root(),
          name + ": same seed, byte-identical inputs");

    const ChainRun ra = chain(a, nullptr);
    Tracer tracer;
    const ChainRun rb = chain(b, &tracer);
    check(ra.error.empty(), name + ": chain run passes its checks" +
                                (ra.error.empty() ? "" : ": " + ra.error));
    check(rb.error.empty(), name + ": traced chain run passes its checks" +
                                (rb.error.empty() ? "" : ": " + rb.error));
    check(ra.counts == rb.counts,
          name + ": same seed, identical fingerprint and counts "
                 "(untraced vs traced)");
    check(!tracer.spans().empty(), name + ": traced run recorded spans");

    const Inputs c = make_inputs(w, 12);
    const ChainRun rc = chain(c, nullptr);
    check(rc.error.empty(), name + ": seed 12 chain run passes its checks" +
                                (rc.error.empty() ? "" : ": " + rc.error));
    check(!(c.digest == a.digest) &&
              rc.counts.fingerprint != ra.counts.fingerprint,
          name + ": another seed gives another fingerprint");
  }
  std::printf("%s: %d failed\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace e2e
