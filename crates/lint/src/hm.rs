//! Health-monitoring analysis (AIR060–AIR061): when HM is configured
//! explicitly, every error id needs *some* action at *some* level
//! (Sect. 2.4: errors are "detected and handled" — a hole in the tables
//! silently falls back to defaults), and log-N-then-act thresholds must
//! actually log before they act.

use air_hm::{ErrorId, ProcessRecoveryAction};
use air_tools::config::SpanKey;

use crate::diag::{Code, Diagnostic, LintReport};
use crate::model::SystemModel;

pub(crate) fn analyze(model: &SystemModel, report: &mut LintReport) {
    if model.hm_declared {
        for error in ErrorId::ALL {
            let classified = model.hm_levels.iter().any(|(e, _)| *e == error);
            let handled = model.handlers.iter().any(|(_, e, _)| *e == error);
            if !classified && !handled {
                report.push(Diagnostic::new(
                    Code::HmUnhandledError,
                    format!(
                        "error id '{error}' has no explicit action at any level; \
                         it would fall back to the built-in defaults"
                    ),
                ));
            }
        }
    }

    for (pid, error, action) in &model.handlers {
        if let ProcessRecoveryAction::LogThenAct { threshold: 0, then } = action {
            report.push(
                Diagnostic::new(
                    Code::UnreachableLogThreshold,
                    format!(
                        "handler of {pid} for '{error}' logs zero times before \
                         escalating to {then:?}; the log phase is unreachable"
                    ),
                )
                .with_line(model.spans.get(&SpanKey::Handler(*pid, *error))),
            );
        }
    }
}
