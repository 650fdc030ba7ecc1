#include "core/serial_executor.hpp"

#include <algorithm>

#include "state/exec_buffer.hpp"
#include "state/read_view.hpp"
#include "support/assert.hpp"

namespace blockpilot::core {

chain::Block seal_block(const evm::BlockContext& ctx,
                        const BlockExecution& exec,
                        std::vector<chain::Transaction> txs) {
  chain::Block block;
  block.header.number = ctx.number;
  block.header.timestamp = ctx.timestamp;
  block.header.coinbase = ctx.coinbase;
  block.header.gas_limit = ctx.gas_limit;
  block.header.gas_used = exec.gas_used;
  block.header.state_root = exec.state_root;
  block.header.tx_root = chain::transactions_root(txs);
  const std::vector<chain::Bloom> blooms = chain::receipt_blooms(exec.receipts);
  block.header.receipts_root = chain::receipts_root(exec.receipts, blooms);
  block.header.logs_bloom = chain::block_bloom(blooms);
  block.transactions = std::move(txs);
  return block;
}

void apply_tx_writes(
    state::WorldState& ws,
    const std::vector<std::pair<state::StateKey, U256>>& writes,
    const Address& coinbase, const U256& fee) {
  for (const auto& [key, value] : writes) ws.set(key, value);
  if (!fee.is_zero()) {
    const auto cb_key = state::StateKey::balance(coinbase);
    ws.set(cb_key, ws.get(cb_key) + fee);
  }
}

SerialResult execute_serial(const state::WorldState& pre,
                            const evm::BlockContext& block_ctx,
                            std::span<const chain::Transaction> txs,
                            const SerialOptions& options) {
  SerialResult result;
  auto post = std::make_shared<state::WorldState>(pre);

  evm::BlockContext exec_ctx = block_ctx;
  if (options.analysis_cache) exec_ctx.analysis_cache = options.analysis_cache;

  for (const auto& tx : txs) {
    const state::WorldStateView view(*post);
    state::ExecBuffer buffer(view);
    const evm::TxExecResult r =
        evm::execute_transaction(buffer, exec_ctx, tx);

    if (r.status != evm::TxStatus::kIncluded) {
      if (options.drop_unincludable) continue;
      result.ok = false;
      return result;
    }
    if (result.exec.gas_used + r.gas_used > options.block_gas_limit) {
      if (options.drop_unincludable) continue;  // skip, try later txs
      result.ok = false;
      return result;
    }

    chain::TxProfile profile;
    profile.reads = buffer.sorted_read_keys();
    profile.writes = buffer.write_set();
    profile.gas_used = r.gas_used;

    apply_tx_writes(*post, profile.writes, block_ctx.coinbase, r.fee());

    chain::Receipt receipt;
    receipt.success = (r.vm_status == evm::Status::kSuccess);
    receipt.gas_used = r.gas_used;
    result.exec.gas_used += r.gas_used;
    receipt.cumulative_gas = result.exec.gas_used;
    receipt.logs = r.logs;

    result.exec.receipts.push_back(std::move(receipt));
    result.exec.profile.txs.push_back(std::move(profile));
    result.included.push_back(tx);
  }

  result.exec.state_root = post->state_root();
  result.exec.post_state = std::move(post);
  return result;
}

}  // namespace blockpilot::core
