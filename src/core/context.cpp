#include "core/context.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace ca::core {

namespace {
/// Assign `group` to `slots[r]` for every rank r in the group.
void assign(std::vector<collective::Group*>& slots, collective::Group& group) {
  for (int r : group.ranks()) slots.at(static_cast<std::size_t>(r)) = &group;
}
}  // namespace

int ParallelContext::tp_slot() const {
  return config_.tensor_parallel_size * config_.sequence_parallel_size;
}

ParallelContext::ParallelContext(collective::Backend& backend, Config config)
    : ParallelContext(backend, std::move(config), std::vector<int>{}) {}

ParallelContext::ParallelContext(collective::Backend& backend, Config config,
                                 std::vector<int> members)
    : backend_(backend), config_(config), members_(std::move(members)) {
  config_.validate();
  const int world = config_.world_size();
  const int cluster_world = backend.cluster().world_size();
  if (members_.empty()) {
    // Identity mapping: virtual rank v == physical rank v.
    if (world != cluster_world) {
      throw std::invalid_argument(
          "config world size " + std::to_string(world) + " != cluster size " +
          std::to_string(backend.cluster().world_size()));
    }
    members_.resize(static_cast<std::size_t>(world));
    for (int v = 0; v < world; ++v) members_[static_cast<std::size_t>(v)] = v;
  }
  if (static_cast<int>(members_.size()) != world) {
    throw std::invalid_argument(
        "member list size " + std::to_string(members_.size()) +
        " != config world size " + std::to_string(world));
  }
  virt_of_.assign(static_cast<std::size_t>(cluster_world), -1);
  for (int v = 0; v < world; ++v) {
    const int g = members_[static_cast<std::size_t>(v)];
    if (g < 0 || g >= cluster_world ||
        virt_of_[static_cast<std::size_t>(g)] != -1) {
      throw std::invalid_argument(
          "member list must hold distinct cluster ranks; bad entry " +
          std::to_string(g));
    }
    virt_of_[static_cast<std::size_t>(g)] = v;
  }
  bool identity = true;
  for (int v = 0; v < world; ++v) {
    identity = identity && members_[static_cast<std::size_t>(v)] == v;
  }
  identity = identity && world == cluster_world;
  const int tp = tp_slot();
  const int pp = config_.pipeline_parallel_size;
  const int dp = config_.data_parallel_size;

  // Knobs resolved per context: env > config > default. The algorithm lands
  // on the backend's policy, shared by every group it creates.
  const knobs::Layer layer = knob_layer(config_);
  backend_.set_forced_algo(collective::AlgoSelector::parse(
      knobs::resolve(knobs::Knob::kCollectiveAlgo, layer)));
  comm_dtype_ =
      *tensor::parse_dtype(knobs::resolve(knobs::Knob::kCommDtype, layer));

  data_groups_.resize(static_cast<std::size_t>(cluster_world), nullptr);
  data_node_groups_.resize(static_cast<std::size_t>(cluster_world), nullptr);
  data_leader_groups_.resize(static_cast<std::size_t>(cluster_world), nullptr);
  tensor_groups_.resize(static_cast<std::size_t>(cluster_world), nullptr);
  row_groups_.resize(static_cast<std::size_t>(cluster_world), nullptr);
  col_groups_.resize(static_cast<std::size_t>(cluster_world), nullptr);
  depth_groups_.resize(static_cast<std::size_t>(cluster_world), nullptr);
  cube_i_groups_.resize(static_cast<std::size_t>(cluster_world), nullptr);
  cube_j_groups_.resize(static_cast<std::size_t>(cluster_world), nullptr);
  cube_k_groups_.resize(static_cast<std::size_t>(cluster_world), nullptr);

  // Every loop below enumerates VIRTUAL ranks and maps them to physical
  // cluster ranks through `phys` before the group is created, so the same
  // layout arithmetic drives both the identity and the elastic form.
  const auto phys = [this](int v) {
    return members_[static_cast<std::size_t>(v)];
  };

  world_group_ = identity ? &backend_.world()
                          : &backend_.create_group(members_, "world");

  // Data groups: same (pipe, tp) slot across all data replicas.
  for (int p = 0; p < pp; ++p) {
    for (int t = 0; t < tp; ++t) {
      std::vector<int> ranks;
      ranks.reserve(static_cast<std::size_t>(dp));
      for (int d = 0; d < dp; ++d) ranks.push_back(phys((d * pp + p) * tp + t));
      auto& g = backend_.create_group(std::move(ranks), "data");
      assign(data_groups_, g);

      // When the data group spans real nodes, expose its two-level
      // decomposition as explicit subgroups so gradient sync can be composed
      // manually (intra-node + leaders). Derived from the group's own plan,
      // so the subgroup split always matches what kHierarchical would use.
      const auto& plan = g.plan();
      if (plan.viable() && plan.by_node) {
        for (const auto& block : plan.blocks) {
          std::vector<int> node_ranks;
          node_ranks.reserve(block.size());
          for (int m : block) {
            node_ranks.push_back(g.ranks()[static_cast<std::size_t>(m)]);
          }
          assign(data_node_groups_,
                 backend_.create_group(std::move(node_ranks), "data_node"));
        }
        std::vector<int> leader_ranks;
        leader_ranks.reserve(plan.leaders.size());
        for (int m : plan.leaders) {
          leader_ranks.push_back(g.ranks()[static_cast<std::size_t>(m)]);
        }
        assign(data_leader_groups_,
               backend_.create_group(std::move(leader_ranks), "data_leader"));
      }
    }
  }

  // Tensor groups: tp consecutive ranks.
  for (int d = 0; d < dp; ++d) {
    for (int p = 0; p < pp; ++p) {
      const int base = (d * pp + p) * tp;
      std::vector<int> ranks;
      ranks.reserve(static_cast<std::size_t>(tp));
      for (int t = 0; t < tp; ++t) ranks.push_back(phys(base + t));
      auto& g = backend_.create_group(std::move(ranks), "tensor");
      assign(tensor_groups_, g);

      // Sub-groups inside this tensor group, by mode.
      switch (config_.tensor_mode) {
        case TpMode::kNone:
        case TpMode::k1d:
          break;
        case TpMode::k2d:
        case TpMode::k2p5d: {
          // 2D is 2.5D at depth 1: one SUMMA grid per depth layer (rows,
          // then columns), and depth groups only when layers stack.
          const int depth = this->depth();
          const int layer = config_.tensor_parallel_size / depth;
          const int q = Config::exact_sqrt(layer);
          grid_side_ = q;
          for (int dd = 0; dd < depth; ++dd) {
            const int lbase = base + dd * layer;
            for (int r = 0; r < q; ++r) {
              std::vector<int> row;
              for (int c = 0; c < q; ++c) {
                row.push_back(phys(lbase + r * q + c));
              }
              assign(row_groups_, backend_.create_group(std::move(row), "row"));
            }
            for (int c = 0; c < q; ++c) {
              std::vector<int> col;
              for (int r = 0; r < q; ++r) {
                col.push_back(phys(lbase + r * q + c));
              }
              assign(col_groups_, backend_.create_group(std::move(col), "col"));
            }
          }
          if (depth == 1) break;
          for (int cell = 0; cell < layer; ++cell) {
            std::vector<int> dg;
            for (int dd = 0; dd < depth; ++dd) {
              dg.push_back(phys(base + dd * layer + cell));
            }
            assign(depth_groups_, backend_.create_group(std::move(dg), "depth"));
          }
          break;
        }
        case TpMode::k3d: {
          const int l = Config::exact_cbrt(config_.tensor_parallel_size);
          grid_side_ = l;
          // coords: t = (i * l + j) * l + k
          for (int j = 0; j < l; ++j)
            for (int k = 0; k < l; ++k) {  // vary i
              std::vector<int> g3;
              for (int i = 0; i < l; ++i) {
                g3.push_back(phys(base + (i * l + j) * l + k));
              }
              assign(cube_i_groups_, backend_.create_group(std::move(g3), "cube_i"));
            }
          for (int i = 0; i < l; ++i)
            for (int k = 0; k < l; ++k) {  // vary j
              std::vector<int> g3;
              for (int j = 0; j < l; ++j) {
                g3.push_back(phys(base + (i * l + j) * l + k));
              }
              assign(cube_j_groups_, backend_.create_group(std::move(g3), "cube_j"));
            }
          for (int i = 0; i < l; ++i)
            for (int j = 0; j < l; ++j) {  // vary k
              std::vector<int> g3;
              for (int k = 0; k < l; ++k) {
                g3.push_back(phys(base + (i * l + j) * l + k));
              }
              assign(cube_k_groups_, backend_.create_group(std::move(g3), "cube_k"));
            }
          break;
        }
      }
    }
  }
}

int ParallelContext::virtual_rank(int grank) const {
  const int v = virt_of_.at(static_cast<std::size_t>(grank));
  if (v < 0) {
    throw std::logic_error("rank " + std::to_string(grank) +
                           " is not a member of this parallel context");
  }
  return v;
}

int ParallelContext::data_rank(int grank) const {
  return virtual_rank(grank) / (config_.pipeline_parallel_size * tp_slot());
}

int ParallelContext::pipeline_rank(int grank) const {
  return (virtual_rank(grank) / tp_slot()) % config_.pipeline_parallel_size;
}

int ParallelContext::tensor_rank(int grank) const {
  return virtual_rank(grank) % tp_slot();
}

int ParallelContext::pipeline_prev(int grank) const {
  return pipeline_rank(grank) == 0
             ? -1
             : members_[static_cast<std::size_t>(virtual_rank(grank) -
                                                 tp_slot())];
}

int ParallelContext::pipeline_next(int grank) const {
  return pipeline_rank(grank) == config_.pipeline_parallel_size - 1
             ? -1
             : members_[static_cast<std::size_t>(virtual_rank(grank) +
                                                 tp_slot())];
}

bool ParallelContext::is_first_stage(int grank) const {
  return pipeline_rank(grank) == 0;
}

bool ParallelContext::is_last_stage(int grank) const {
  return pipeline_rank(grank) == config_.pipeline_parallel_size - 1;
}

namespace {
collective::Group& require_group(const std::vector<collective::Group*>& v,
                                 int grank, const char* what) {
  collective::Group* g = v.at(static_cast<std::size_t>(grank));
  if (g == nullptr) {
    throw std::logic_error(std::string(what) +
                           " group not available under this configuration");
  }
  return *g;
}
}  // namespace

collective::Group& ParallelContext::data_group(int grank) {
  return require_group(data_groups_, grank, "data");
}
collective::Group& ParallelContext::data_node_group(int grank) {
  return require_group(data_node_groups_, grank, "data-node");
}
collective::Group& ParallelContext::data_leader_group(int grank) {
  return require_group(data_leader_groups_, grank, "data-leader");
}
bool ParallelContext::has_data_node_group(int grank) const {
  return data_node_groups_.at(static_cast<std::size_t>(grank)) != nullptr;
}
bool ParallelContext::is_data_leader(int grank) const {
  return data_leader_groups_.at(static_cast<std::size_t>(grank)) != nullptr;
}

collective::Group& ParallelContext::tensor_group(int grank) {
  return require_group(tensor_groups_, grank, "tensor");
}
collective::Group& ParallelContext::sequence_group(int grank) {
  return require_group(tensor_groups_, grank, "sequence");
}
collective::Group& ParallelContext::row_group(int grank) {
  return require_group(row_groups_, grank, "row");
}
collective::Group& ParallelContext::col_group(int grank) {
  return require_group(col_groups_, grank, "col");
}
collective::Group& ParallelContext::depth_group(int grank) {
  return require_group(depth_groups_, grank, "depth");
}
collective::Group& ParallelContext::cube_i_group(int grank) {
  return require_group(cube_i_groups_, grank, "cube-i");
}
collective::Group& ParallelContext::cube_j_group(int grank) {
  return require_group(cube_j_groups_, grank, "cube-j");
}
collective::Group& ParallelContext::cube_k_group(int grank) {
  return require_group(cube_k_groups_, grank, "cube-k");
}

int ParallelContext::row_coord(int grank) const {
  assert(grid_side_ > 0);
  const int layer = grid_side_ * grid_side_;
  return tensor_rank(grank) % layer / grid_side_;
}

int ParallelContext::col_coord(int grank) const {
  assert(grid_side_ > 0);
  return tensor_rank(grank) % grid_side_;
}

int ParallelContext::depth_coord(int grank) const {
  assert(grid_side_ > 0 && config_.tensor_mode != TpMode::k3d);
  return tensor_rank(grank) / (grid_side_ * grid_side_);
}

int ParallelContext::cube_i(int grank) const {
  assert(config_.tensor_mode == TpMode::k3d);
  return tensor_rank(grank) / (grid_side_ * grid_side_);
}

int ParallelContext::cube_j(int grank) const {
  assert(config_.tensor_mode == TpMode::k3d);
  return tensor_rank(grank) / grid_side_ % grid_side_;
}

int ParallelContext::cube_k(int grank) const {
  assert(config_.tensor_mode == TpMode::k3d);
  return tensor_rank(grank) % grid_side_;
}

}  // namespace ca::core
