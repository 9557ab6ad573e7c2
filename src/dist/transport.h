// How dispatch starts its persistent worker sessions.
//
// The orchestrator decides *what* to run; a Transport decides *where*. It
// holds an optional shell template:
//
//  * empty — exec the worker argv directly on this host. With the default
//    nproc-sized worker pool this is the single-machine scale-out path.
//  * non-empty — run the template via `/bin/sh -c` with every `{cmd}`
//    replaced by the shell-quoted worker command; enough to wrap the worker
//    in ssh, a container runner, or a fault-injecting test harness:
//
//        --transport 'ssh build-02 cd /repo \&\& {cmd}'
//
// Either way the child's stdin and stdout are pipes, and the orchestrator
// speaks the session protocol (dist/session.h) over them. A wrapper (sh,
// ssh, a container runner) simply forwards stdio, which is exactly what ssh
// and every sane submit wrapper do, so a multi-host fleet gets persistent
// sessions and golden-state shipping for free. A scheduler that cannot
// forward stdio has no place here: run `cicmon <sweep> --shard I/N --out
// PATH` per shard under it and aggregate with `cicmon merge`. A template
// with per-shard `{shard}`/`{out}` placeholders is meant for such a
// scheduler, so it is rejected with a pointer to that route.
//
// Remote-kill caveat: on timeout/teardown the orchestrator signals the
// *local* child — the ssh client or submit wrapper, not a remote process it
// started. Teardown is SIGTERM first with a short grace period
// (--shutdown-grace semantics in support::ChildProcess::terminate_gracefully)
// precisely so a wrapper that forwards signals (ssh -tt, a shell trap) can
// propagate the kill; once the grace expires SIGKILL follows, and SIGKILL is
// not forwardable. The session's stdin is the orchestrator's pipe, though,
// so teardown's stdin EOF reaches the far end of an ssh hop even when
// signals do not; an orphaned remote worker's artifact, if any, is simply
// re-validated on the next resume.
#pragma once

#include <string>
#include <vector>

#include "support/subprocess.h"

namespace cicmon::dist {

// The persistent-session command dispatch launches per worker slot:
// `cicmon worker <sweep> <sweep flags>`; the orchestrator appends `--jobs N`
// (session_worker_argv) and streams shard assignments over the process's
// stdin.
struct WorkerCommand {
  std::vector<std::string> argv;
};

class Transport {
 public:
  // Throws CicError when a non-empty template lacks `{cmd}` (a transport
  // that never runs the worker cannot serve a session) or uses `{shard}` or
  // `{out}` (per-shard launches belong to `--shard/--out` plus merge).
  explicit Transport(std::string template_text = "");

  // Starts one worker with piped stdin/stdout. Throws CicError when the
  // process cannot be started; an exec failure makes the child exit 127.
  support::ChildProcess launch(const std::vector<std::string>& argv) const;

  // "local", or "template '<text>'", for progress and failure reports.
  std::string describe() const;

 private:
  std::string template_text_;
};

}  // namespace cicmon::dist
