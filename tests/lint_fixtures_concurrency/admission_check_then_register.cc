// expect-lint: admission-recheck
//
// Check-then-register: the transaction passes the admission gate and only
// then registers with the phase controller, with no re-check of the gate
// after registering. A quiesce can close the gate and drain the
// registered count between the two steps, and the drain never sees this
// transaction. The fix registers first, then re-checks the gate and
// retries (txn/executor.cc).

#include <string>

#include "checkpoint/admission_gate.h"
#include "checkpoint/checkpointer.h"
#include "checkpoint/phase.h"

namespace calcdb {

class CheckThenRegisterExecutor {
 public:
  Status Execute(uint32_t proc_id, std::string args) {
    // 1. Admission: quiesce-based checkpointers may block us here.
    checkpointer_->AdmitTransaction();

    Txn txn;
    txn.proc_id = proc_id;

    // 2. Register.
    txn.start_phase = phases_->BeginTxn();
    Status st = Run(&txn, args);
    phases_->EndTxn(txn.start_phase);
    return st;
  }

 private:
  Status Run(Txn* txn, const std::string& args);

  Checkpointer* checkpointer_;
  PhaseController* phases_;
};

}  // namespace calcdb
