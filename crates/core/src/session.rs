//! Per-session policy overlays.
//!
//! A [`SessionCtx`] carries everything one analyst session wants to
//! override about the engine's defaults: its own cancel token, its own
//! deadline budget, and optional exec/cache/obs policy overlays. It is
//! deliberately *sparse* — every field is an `Option`, and `None` means
//! "inherit the engine default" — so the merge happens in exactly one
//! place, the engine's private per-call `resolve` (DESIGN.md §10):
//! session overlay first, engine default second.
//!
//! An overlay takes effect by being owned by an engine handle:
//! [`ExploreDb::with_session`](crate::ExploreDb::with_session) passes
//! its closure a `&ExploreDb` that carries the overlay, and every call
//! made on that handle — from any thread — resolves it. The serving
//! layer (`explore-serve`) mints one `SessionCtx` per connected session
//! and runs each scheduled call that way; direct library users can do
//! the same to scope a token or a policy to one call sequence without
//! mutating engine-wide policies.

use std::fmt;
use std::time::Duration;

use explore_cache::CachePolicy;
use explore_exec::{ExecPolicy, YieldHook};
use explore_fault::CancelToken;
use explore_obs::ObsPolicy;

/// A sparse per-session overlay over the engine's policy knobs. All
/// fields default to `None` = "inherit the engine default"; the cancel
/// token is the only thing a fresh session always owns.
#[derive(Clone, Default)]
pub struct SessionCtx {
    /// Session-scoped cancellation token. A fresh session owns one;
    /// `None` means the session cannot be cancelled (there is no
    /// engine-global token to fall back to).
    pub cancel: Option<CancelToken>,
    /// Per-query deadline budget; a fresh token is minted per call so
    /// each query gets the full budget. `None` means no deadline —
    /// budgets exist only at session scope.
    pub deadline: Option<Duration>,
    /// Execution-policy overlay. `None` inherits the engine knob.
    pub exec: Option<ExecPolicy>,
    /// Cache-policy overlay: a session can opt out of (or into) the
    /// shared result cache without flipping the engine knob.
    pub cache: Option<CachePolicy>,
    /// Observability overlay: per-session tracing on or off regardless
    /// of the engine knob (`On` forces a trace via the tracer's
    /// force-start path).
    pub obs: Option<ObsPolicy>,
    /// Cooperative yield hook the serving layer installs so every
    /// `check_cancel` boundary of this session's queries becomes a
    /// scheduling point.
    pub yield_hook: Option<YieldHook>,
}

impl fmt::Debug for SessionCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionCtx")
            .field("cancel", &self.cancel)
            .field("deadline", &self.deadline)
            .field("exec", &self.exec)
            .field("cache", &self.cache)
            .field("obs", &self.obs)
            .field("yield_hook", &self.yield_hook.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl SessionCtx {
    /// A fresh session overlay owning its own cancel token and
    /// inheriting every engine default.
    pub fn new() -> SessionCtx {
        SessionCtx {
            cancel: Some(CancelToken::new()),
            ..SessionCtx::default()
        }
    }

    /// Replace the session's cancel token (or drop it: the session can
    /// then not be cancelled).
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> SessionCtx {
        self.cancel = cancel;
        self
    }

    /// Set the session's per-query deadline budget.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> SessionCtx {
        self.deadline = deadline;
        self
    }

    /// Overlay an execution policy.
    pub fn with_exec(mut self, exec: Option<ExecPolicy>) -> SessionCtx {
        self.exec = exec;
        self
    }

    /// Overlay a cache policy.
    pub fn with_cache(mut self, cache: Option<CachePolicy>) -> SessionCtx {
        self.cache = cache;
        self
    }

    /// Overlay an observability policy.
    pub fn with_obs(mut self, obs: Option<ObsPolicy>) -> SessionCtx {
        self.obs = obs;
        self
    }

    /// Install a cooperative yield hook.
    pub fn with_yield_hook(mut self, hook: Option<YieldHook>) -> SessionCtx {
        self.yield_hook = hook;
        self
    }

    /// The session's cancel token, if it owns one.
    pub fn cancel_token(&self) -> Option<CancelToken> {
        self.cancel.clone()
    }

    /// Trigger the session's cancel token (no-op when it owns none):
    /// every in-flight and future query under this overlay returns
    /// `Cancelled` at its next boundary.
    pub fn cancel(&self) {
        if let Some(c) = &self.cancel {
            c.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_session_owns_a_token_and_inherits_everything_else() {
        let s = SessionCtx::new();
        assert!(s.cancel.is_some());
        assert!(s.deadline.is_none());
        assert!(s.exec.is_none());
        assert!(s.cache.is_none());
        assert!(s.obs.is_none());
        assert!(s.yield_hook.is_none());
    }

    #[test]
    fn cancel_reaches_the_owned_token() {
        let s = SessionCtx::new();
        let t = s.cancel_token().unwrap();
        assert!(!t.is_cancelled());
        s.cancel();
        assert!(t.is_cancelled());
        // A token-less overlay tolerates cancel().
        SessionCtx::default().cancel();
    }

    #[test]
    fn builders_set_overlays() {
        let s = SessionCtx::new()
            .with_deadline(Some(Duration::from_millis(5)))
            .with_exec(Some(ExecPolicy::Serial))
            .with_cache(Some(CachePolicy::on()))
            .with_obs(Some(ObsPolicy::on()));
        assert_eq!(s.deadline, Some(Duration::from_millis(5)));
        assert_eq!(s.exec, Some(ExecPolicy::Serial));
        assert!(s.cache.as_ref().unwrap().is_on());
        assert!(s.obs.as_ref().unwrap().is_on());
        let dbg = format!("{s:?}");
        assert!(dbg.contains("SessionCtx"));
    }
}
