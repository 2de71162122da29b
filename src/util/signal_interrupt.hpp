/// \file signal_interrupt.hpp
/// \brief SIGINT/SIGTERM-to-flag plumbing for the checkpointing CLI.
///
/// gesmc_sample stops at checkpoint boundaries instead of dying mid-write:
/// the handlers installed here only set a process-wide flag the pipeline
/// polls at every checkpoint boundary (PipelineExec::interrupt), and the
/// tool exits 130 with a `--resume` hint.  Install only when checkpointing
/// is on — without checkpoints there is no consistent state to stop at, so
/// the default die-now behavior is the honest one.
#pragma once

#include <atomic>

namespace gesmc {

/// The process-wide flag set by the handlers below; false until a signal
/// arrives.  Safe to wire into PipelineExec::interrupt.
[[nodiscard]] std::atomic<bool>& interrupt_flag() noexcept;

/// Installs SIGINT/SIGTERM handlers that set interrupt_flag().
/// SA_RESETHAND keeps a second Ctrl-C as the immediate kill; SA_RESTART
/// keeps in-flight file IO unperturbed.
void install_interrupt_handlers();

} // namespace gesmc
