// Lint fixture — never compiled. Seeds fused-result-mutation violations
// (waiters grabbing a mutable handle to the shared fan-out answer) for
// tools/lint_selftest.py; expected findings are pinned in
// tests/lint_fixtures/expected.txt.

#include <memory>

namespace webdb {

struct FusionResult {
  double value = 0.0;
};

void Waiter(const std::shared_ptr<const FusionResult>& shared,
            const FusionResult* pooled) {
  // Not a violation: the sanctioned const handles.
  std::shared_ptr<const FusionResult> mine = shared;
  const FusionResult* reader = pooled;
  // VIOLATION fused-result-mutation: a non-const shared handle aliases the
  // answer every other group member reads.
  std::shared_ptr<FusionResult> writable;
  // VIOLATION fused-result-mutation: laundering the const away.
  auto* hack = const_cast<FusionResult*>(shared.get());
  // VIOLATION fused-result-mutation: a mutable raw pointer to the answer.
  FusionResult* scribble = nullptr;
  // VIOLATION fused-result-mutation: a mutable reference to the answer.
  FusionResult& overwrite = *scribble;
  (void)mine;
  (void)reader;
  (void)hack;
  (void)overwrite;
  // Not a violation: escaped with a reason, producer-side construction.
  std::shared_ptr<FusionResult> scratch;  // lint:allow(fused-result-mutation) producer fills before publishing
  (void)scratch;
}

}  // namespace webdb
