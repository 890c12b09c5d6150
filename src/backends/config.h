// Deployment configurations (paper §4, "five scenarios").

#ifndef PVM_SRC_BACKENDS_CONFIG_H_
#define PVM_SRC_BACKENDS_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/simulation.h"

namespace pvm {

enum class DeployMode {
  kKvmEptBm,   // bare-metal, hardware VMX + EPT         ("kvm-ept (BM)")
  kKvmSptBm,   // bare-metal, VMX + shadow paging at L0  ("kvm-spt (BM)")
  kPvmBm,      // PVM as the bare-metal hypervisor       ("pvm (BM)")
  kKvmEptNst,  // nested, EPT-on-EPT                     ("kvm-ept (NST)")
  kPvmNst,     // nested, PVM-on-EPT                     ("pvm (NST)")
  kSptOnEptNst,  // nested, SPT-on-EPT (§2.2 baseline, Fig. 4 "SPT-EPT")
  kPvmDirectNst,  // nested, Xen-like direct paging (§5 future work, ours)
};

constexpr std::string_view deploy_mode_name(DeployMode mode) {
  switch (mode) {
    case DeployMode::kKvmEptBm:
      return "kvm-ept (BM)";
    case DeployMode::kKvmSptBm:
      return "kvm-spt (BM)";
    case DeployMode::kPvmBm:
      return "pvm (BM)";
    case DeployMode::kKvmEptNst:
      return "kvm-ept (NST)";
    case DeployMode::kPvmNst:
      return "pvm (NST)";
    case DeployMode::kSptOnEptNst:
      return "spt-on-ept (NST)";
    case DeployMode::kPvmDirectNst:
      return "pvm-direct (NST)";
  }
  return "?";
}

// CLI-safe spelling of a deployment mode ("pvm", "kvm-spt", "ept", ...);
// shared by simcheck's --modes parser, pvm-matrix specs, and the printed
// reproduce commands so a failure report pastes back verbatim.
constexpr std::string_view deploy_mode_token(DeployMode mode) {
  switch (mode) {
    case DeployMode::kKvmEptBm:
      return "ept-bm";
    case DeployMode::kKvmSptBm:
      return "kvm-spt";
    case DeployMode::kPvmBm:
      return "pvm-bm";
    case DeployMode::kKvmEptNst:
      return "ept";
    case DeployMode::kPvmNst:
      return "pvm";
    case DeployMode::kSptOnEptNst:
      return "spt-on-ept";
    case DeployMode::kPvmDirectNst:
      return "pvm-direct";
  }
  return "?";
}

// Every deployment mode, in enum order (the order "--modes all" expands to).
inline constexpr DeployMode kAllDeployModes[] = {
    DeployMode::kKvmEptBm,    DeployMode::kKvmSptBm,   DeployMode::kPvmBm,
    DeployMode::kKvmEptNst,   DeployMode::kPvmNst,     DeployMode::kSptOnEptNst,
    DeployMode::kPvmDirectNst};

// Every schedule policy (the order "--policies all" expands to).
inline constexpr SchedulePolicy kAllSchedulePolicies[] = {
    SchedulePolicy::kFifo, SchedulePolicy::kRandom, SchedulePolicy::kLifo};

// Parses a mode / policy token; returns false on an unknown spelling.
inline bool parse_deploy_mode_token(std::string_view token, DeployMode* mode) {
  for (const DeployMode m : kAllDeployModes) {
    if (token == deploy_mode_token(m)) {
      *mode = m;
      return true;
    }
  }
  return false;
}

inline bool parse_schedule_policy_token(std::string_view token, SchedulePolicy* policy) {
  for (const SchedulePolicy p : kAllSchedulePolicies) {
    if (token == schedule_policy_name(p)) {
      *policy = p;
      return true;
    }
  }
  return false;
}

// Parses a list flag into `out`: "all" is every value of `all`, in order;
// anything else is comma-separated tokens, kept in the given order. Returns
// false with the first token `parse_token` rejects in `bad`; an empty token
// ("pvm,", "") is rejected like an unknown one.
template <typename T, std::size_t N>
bool parse_token_list(std::string_view list, const T (&all)[N],
                      bool (*parse_token)(std::string_view, T*), std::vector<T>* out,
                      std::string* bad) {
  out->clear();
  if (list == "all") {
    out->assign(std::begin(all), std::end(all));
    return true;
  }
  for (;;) {
    const std::string_view token = list.substr(0, list.find(','));
    T value;
    if (!parse_token(token, &value)) {
      *bad = token;
      return false;
    }
    out->push_back(value);
    if (token.size() == list.size()) {
      return true;
    }
    list.remove_prefix(token.size() + 1);
  }
}

// The --modes list of simcheck, pvm-matrix, pvm-fleet and pvm-stat.
inline bool parse_deploy_mode_list(std::string_view list, std::vector<DeployMode>* modes,
                                   std::string* bad) {
  return parse_token_list(list, kAllDeployModes, parse_deploy_mode_token, modes, bad);
}

// The --policies list of simcheck and pvm-matrix.
inline bool parse_schedule_policy_list(std::string_view list,
                                       std::vector<SchedulePolicy>* policies, std::string* bad) {
  return parse_token_list(list, kAllSchedulePolicies, parse_schedule_policy_token, policies, bad);
}

constexpr bool deploy_mode_is_nested(DeployMode mode) {
  return mode == DeployMode::kKvmEptNst || mode == DeployMode::kPvmNst ||
         mode == DeployMode::kSptOnEptNst || mode == DeployMode::kPvmDirectNst;
}

constexpr bool deploy_mode_is_pvm(DeployMode mode) {
  return mode == DeployMode::kPvmBm || mode == DeployMode::kPvmNst ||
         mode == DeployMode::kPvmDirectNst;
}

struct PlatformConfig {
  DeployMode mode = DeployMode::kPvmNst;

  // Guest kernel page table isolation (Tables 1/2 sweep it).
  bool kpti = true;

  // PVM optimizations (Fig. 10 ablations + Table 2).
  bool direct_switch = true;
  bool prefault = true;
  bool pcid_mapping = true;
  bool fine_grained_locks = true;
  // §5 future-work extensions: switcher-side page-fault classification and
  // collaborative (write-protection-free, batched) page-table sync.
  bool switcher_pf_classify = false;
  bool collaborative_pt = false;

  // Host-side nVMX VMCS shadowing (on in the paper's testbed).
  bool vmcs_shadowing = true;

  // Number of leased L1 instances in nested modes; containers are placed
  // round-robin. More instances split the per-L1-VM L0 mmu_lock domain —
  // the scale-out mitigation clouds actually use (each instance is still
  // individually subject to the §2.2 bottleneck).
  int l1_instances = 1;

  // Memory sizes in 4 KiB frames. Generous defaults; frames are bookkeeping
  // only, so large values cost nothing until mapped.
  std::uint64_t host_frames = 64ull << 20;       // 256 GiB
  std::uint64_t l1_frames = 48ull << 20;         // 192 GiB L1 instance
  std::uint64_t container_frames = 2ull << 20;   // 8 GiB per secure container

  // Host hardware parallelism (2x Xeon 8269CY with HT = 104 threads).
  int host_cpus = 104;

  // Tie-breaking rule for same-timestamp simulation events (simcheck's
  // schedule-exploration axis). kFifo reproduces the historical schedule
  // bit-for-bit; each (kRandom, schedule_seed) pair deterministically
  // explores a different legal interleaving.
  SchedulePolicy schedule_policy = SchedulePolicy::kFifo;
  std::uint64_t schedule_seed = 0;

  // Arms the SPT coherence oracle on every shadow-paging engine the
  // platform creates: structural invariants are re-verified after each
  // quiescent engine mutation (strict guest-PT agreement is additionally
  // checked at explicit quiescent points unless collaborative_pt defers
  // sync legitimately).
  bool coherence_oracle = false;
};

}  // namespace pvm

#endif  // PVM_SRC_BACKENDS_CONFIG_H_
