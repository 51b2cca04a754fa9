#pragma once

#include <vector>

#include "collective/backend.hpp"
#include "core/config.hpp"
#include "tensor/dtype.hpp"

namespace ca::core {

/// The parallel context manager of Figure 1: given a Config it decomposes
/// every global rank into (data, pipeline, tensor/sequence) coordinates and
/// builds all process groups each parallel mode needs, including the 2D /
/// 2.5D row/column(/depth) and 3D axis sub-groups inside each tensor group.
/// 2D is built as 2.5D at depth 1.
///
/// Rank layout (tensor innermost, matching Megatron-LM so tensor groups map
/// to the best-connected devices):
///   grank = (data_rank * pipeline_size + pipe_rank) * tp_size + tp_rank
/// Sequence parallelism occupies the same innermost slot as tensor
/// parallelism (the two are mutually exclusive).
///
/// Construction happens on the launching thread before the SPMD region; all
/// query methods are then safe to call concurrently from rank threads.
class ParallelContext {
 public:
  /// Identity mapping: the config world must equal the cluster world and
  /// virtual rank v lives on physical rank v.
  ParallelContext(collective::Backend& backend, Config config);

  /// Elastic form: run the config's (possibly smaller) world on an explicit
  /// survivor set. `members[v]` is the physical cluster rank hosting virtual
  /// rank v; members must be distinct, within the cluster, and exactly
  /// config.world_size() long. Every group is built over physical ranks, so
  /// query methods keep taking physical granks (the id the rank thread
  /// already holds); non-members simply own no groups.
  ParallelContext(collective::Backend& backend, Config config,
                  std::vector<int> members);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] collective::Backend& backend() { return backend_; }
  [[nodiscard]] int world_size() const { return config_.world_size(); }

  /// members()[v] = physical rank of virtual rank v (identity by default).
  [[nodiscard]] const std::vector<int>& members() const { return members_; }
  [[nodiscard]] bool is_member(int grank) const {
    return virt_of_.at(static_cast<std::size_t>(grank)) >= 0;
  }
  /// Virtual rank of a physical member (throws std::logic_error otherwise).
  [[nodiscard]] int virtual_rank(int grank) const;

  /// Group spanning every member of THIS context's world — the backend's
  /// whole-cluster group under the identity mapping, a dedicated group on a
  /// shrunk world. World-scoped engine collectives (NaN consensus, the
  /// checkpoint barrier) go through here so they keep working after an
  /// elastic rebuild excludes dead ranks.
  [[nodiscard]] collective::Group& world_group() { return *world_group_; }

  /// The wire element type product comm paths (engine gradient sync, ZeRO,
  /// TP/SP activation exchanges) pass to their collectives: the
  /// CA_COMM_DTYPE knob, resolved at construction. Bare Group calls and
  /// checkpoint traffic are unaffected (fp32).
  [[nodiscard]] tensor::Dtype comm_dtype() const { return comm_dtype_; }

  /// The explicit-override tier of the precedence chain: force the wire
  /// dtype regardless of env/config. Call before the SPMD region (not
  /// thread-safe against concurrent comm_dtype() readers). Tests asserting
  /// exact serial equivalence pin kF32 here so they stay meaningful when the
  /// suite runs under CA_COMM_DTYPE=bf16.
  void set_comm_dtype(tensor::Dtype d) { comm_dtype_ = d; }

  // ---- rank decomposition ----------------------------------------------------

  [[nodiscard]] int data_rank(int grank) const;
  [[nodiscard]] int pipeline_rank(int grank) const;
  /// Rank inside the tensor (or sequence) group.
  [[nodiscard]] int tensor_rank(int grank) const;

  /// Global rank of the previous/next pipeline stage, or -1 at the ends.
  [[nodiscard]] int pipeline_prev(int grank) const;
  [[nodiscard]] int pipeline_next(int grank) const;
  [[nodiscard]] bool is_first_stage(int grank) const;
  [[nodiscard]] bool is_last_stage(int grank) const;

  // ---- groups -------------------------------------------------------------------

  [[nodiscard]] collective::Group& data_group(int grank);
  [[nodiscard]] collective::Group& tensor_group(int grank);
  /// Alias of tensor_group when sequence parallelism is configured.
  [[nodiscard]] collective::Group& sequence_group(int grank);

  // Two-level decomposition of a node-spanning data group, for gradient
  // sync composed as intra-node reduce-scatter + inter-node exchange over
  // node leaders + intra-node all-gather (the manual counterpart of the
  // hierarchical all-reduce algorithm). Built only when the data group's
  // two-level plan follows real topology nodes.

  /// Members of my data group on my node. Throws when no two-level
  /// decomposition exists (single-node data group, or dp == 1).
  [[nodiscard]] collective::Group& data_node_group(int grank);
  /// One member per node of my data group (the node leaders). Available only
  /// for ranks with is_data_leader(); others throw.
  [[nodiscard]] collective::Group& data_leader_group(int grank);
  [[nodiscard]] bool has_data_node_group(int grank) const;
  [[nodiscard]] bool is_data_leader(int grank) const;

  // 2D / 2.5D: the SUMMA grid inside one (depth layer of a) tensor group.
  [[nodiscard]] collective::Group& row_group(int grank);
  [[nodiscard]] collective::Group& col_group(int grank);
  /// 2.5D at depth > 1 only: the group across depth layers holding the same
  /// grid cell.
  [[nodiscard]] collective::Group& depth_group(int grank);

  // 3D: groups that vary exactly one cube coordinate.
  [[nodiscard]] collective::Group& cube_i_group(int grank);
  [[nodiscard]] collective::Group& cube_j_group(int grank);
  [[nodiscard]] collective::Group& cube_k_group(int grank);

  // ---- grid coordinates -----------------------------------------------------------

  /// 2D / 2.5D grid side (j or k in the paper's notation); 3D cube side l.
  [[nodiscard]] int grid_side() const { return grid_side_; }
  /// Number of stacked SUMMA grids: the configured depth in 2.5D, 1 in
  /// every other mode (2D is 2.5D at depth 1).
  [[nodiscard]] int depth() const {
    return config_.tensor_mode == TpMode::k2p5d ? config_.tensor_depth : 1;
  }

  [[nodiscard]] int row_coord(int grank) const;    // 2D/2.5D
  [[nodiscard]] int col_coord(int grank) const;    // 2D/2.5D
  [[nodiscard]] int depth_coord(int grank) const;  // 2D (always 0)/2.5D
  [[nodiscard]] int cube_i(int grank) const;       // 3D
  [[nodiscard]] int cube_j(int grank) const;
  [[nodiscard]] int cube_k(int grank) const;

 private:
  [[nodiscard]] int tp_slot() const;  // tensor*sequence size (innermost extent)

  collective::Backend& backend_;
  Config config_;
  tensor::Dtype comm_dtype_ = tensor::Dtype::kF32;
  int grid_side_ = 0;
  std::vector<int> members_;  ///< virtual -> physical
  std::vector<int> virt_of_;  ///< physical -> virtual, -1 for non-members
  collective::Group* world_group_ = nullptr;

  // one entry per physical cluster rank (nullptr on non-members)
  std::vector<collective::Group*> data_groups_;
  std::vector<collective::Group*> data_node_groups_;
  std::vector<collective::Group*> data_leader_groups_;
  std::vector<collective::Group*> tensor_groups_;
  std::vector<collective::Group*> row_groups_;
  std::vector<collective::Group*> col_groups_;
  std::vector<collective::Group*> depth_groups_;
  std::vector<collective::Group*> cube_i_groups_;
  std::vector<collective::Group*> cube_j_groups_;
  std::vector<collective::Group*> cube_k_groups_;
};

}  // namespace ca::core
