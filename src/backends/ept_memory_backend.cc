#include "src/backends/ept_memory_backend.h"

namespace pvm {

Task<bool> EptMemoryBackend::resolve_fault(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                                           const GuestAccess& access, const TwoDimWalk& walk) {
  if (walk.outcome == TwoDimWalk::Outcome::kEptViolation) {
    co_await l0_->ensure_backed(*vm_, walk.violating_gpa);
  } else {
    // Handled entirely inside the guest — no exits.
    co_await guest_local_fault(vcpu, proc, kernel, access, walk);
  }
  co_return true;
}

}  // namespace pvm
