//! Script sanitization (paper §4.2).
//!
//! Given the repository-wide [`UserGroupUniverse`], the sanitizer rewrites a
//! script so that its effect on the OS configuration is deterministic:
//!
//! 1. user/group-creating commands are removed and replaced by the canonical
//!    preamble that creates *all* users/groups of the universe in one fixed
//!    order,
//! 2. empty-file creation is kept (its content — the empty file — is
//!    predictable and signed),
//! 3. everything else that is unsafe (config changes, shell activation,
//!    unpredictable output) causes rejection — those packages are not served
//!    by TSR (0.24% of the Alpine repositories in the paper).

use std::fmt;

use crate::classify::{classify_command, OperationKind};
use crate::parse::{parse_commands, Redirect};
use crate::usergroup::UserGroupUniverse;

/// Why a script cannot be sanitized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported {
    /// The category that made the script unsupported.
    pub kind: OperationKind,
    /// The offending command text.
    pub command: String,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unsupported script: {} in `{}`", self.kind, self.command)
    }
}

impl std::error::Error for Unsupported {}

/// Result of sanitizing one script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizedScript {
    /// The rewritten script body.
    pub body: String,
    /// True when the canonical user/group preamble was injected; the
    /// caller must then also install signatures for the predicted
    /// `/etc/passwd`, `/etc/group`, and `/etc/shadow`.
    pub touches_accounts: bool,
    /// Paths of empty files the script creates (`touch`, bare `>`); the
    /// caller signs the empty content for each.
    pub created_empty_files: Vec<String>,
}

/// Sanitizes one script against the universe.
///
/// The universe must already have ids assigned
/// ([`UserGroupUniverse::assign_ids`]).
///
/// # Errors
///
/// Returns [`Unsupported`] when the script performs operations TSR refuses
/// to sanitize (configuration changes, shell activation, unpredictable
/// output).
///
/// # Examples
///
/// ```
/// use tsr_script::sanitize::sanitize_script;
/// use tsr_script::usergroup::UserGroupUniverse;
///
/// let mut universe = UserGroupUniverse::new();
/// universe.scan_script("adduser -S www");
/// universe.assign_ids();
///
/// let out = sanitize_script("adduser -S www\nmkdir -p /var/www", &universe)?;
/// assert!(out.touches_accounts);
/// assert!(out.body.contains("canonical user/group creation"));
/// assert!(out.body.contains("mkdir -p /var/www"));
/// # Ok::<(), tsr_script::sanitize::Unsupported>(())
/// ```
pub fn sanitize_script(
    script: &str,
    universe: &UserGroupUniverse,
) -> Result<SanitizedScript, Unsupported> {
    // Pass 1: reject unsupported operations, collect empty-file targets.
    let touches_accounts = creates_accounts(script);
    let mut created_empty_files = Vec::new();
    for cmd in parse_commands(script) {
        let kind = classify_command(&cmd);
        match kind {
            OperationKind::ConfigChange
            | OperationKind::ShellActivation
            | OperationKind::Unpredictable => {
                return Err(Unsupported {
                    kind,
                    command: cmd.argv.join(" "),
                });
            }
            OperationKind::EmptyFileCreation => {
                if cmd.name() == Some("touch") {
                    for p in cmd.positional_args(&[]) {
                        created_empty_files.push(p.to_string());
                    }
                } else {
                    for (r, target) in &cmd.redirects {
                        if matches!(r, Redirect::Out) {
                            created_empty_files.push(target.clone());
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // Pass 2: rewrite line by line, dropping user/group commands.
    let mut body = String::new();
    if touches_accounts {
        body.push_str(&universe.canonical_preamble());
    }
    for line in script.lines() {
        if creates_accounts(line) {
            body.push_str(&format!("# tsr: removed `{}`\n", line.trim()));
        } else {
            body.push_str(line);
            body.push('\n');
        }
    }
    Ok(SanitizedScript {
        body,
        touches_accounts,
        created_empty_files,
    })
}

/// True when any command of `script` creates users or groups: the
/// predicate that decides whether a sanitized script carries the canonical
/// preamble, and so whether its package depends on the universe.
pub fn creates_accounts(script: &str) -> bool {
    parse_commands(script)
        .iter()
        .any(|c| classify_command(c) == OperationKind::UserGroupCreation)
}

/// Appends signature-installation commands to a sanitized script body.
///
/// The interpreter in the package-manager substrate implements
/// `tsr-setfattr <path> <name> <hex>` by setting the extended attribute on
/// the simulated filesystem — the analogue of the paper's mechanism where
/// the script installs IMA signatures for the predicted configuration.
pub fn append_signature_commands(body: &mut String, sigs: &[(String, String)]) {
    if sigs.is_empty() {
        return;
    }
    body.push_str("# --- tsr: install predicted-content signatures ---\n");
    for (path, hex_sig) in sigs {
        body.push_str(&format!("tsr-setfattr {path} security.ima {hex_sig}\n"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe(scripts: &[&str]) -> UserGroupUniverse {
        let mut u = UserGroupUniverse::new();
        for s in scripts {
            u.scan_script(s);
        }
        u.assign_ids();
        u
    }

    #[test]
    fn safe_script_unchanged_except_newlines() {
        let u = universe(&[]);
        let s = sanitize_script("mkdir -p /var/lib/app\nchown app /var/lib/app", &u).unwrap();
        assert!(!s.touches_accounts);
        assert_eq!(s.body, "mkdir -p /var/lib/app\nchown app /var/lib/app\n");
    }

    #[test]
    fn usergroup_commands_replaced_by_preamble() {
        let u = universe(&["adduser -S www", "adduser -S db"]);
        let s = sanitize_script("adduser -S www\necho done", &u).unwrap();
        assert!(s.touches_accounts);
        // Preamble creates BOTH users even though this script only adds one.
        assert!(s.body.contains(" www\n"));
        assert!(s.body.contains(" db\n"));
        assert!(s.body.contains("# tsr: removed `adduser -S www`"));
        assert!(s.body.contains("echo done"));
    }

    #[test]
    fn preamble_precedes_original_commands() {
        let u = universe(&["adduser -S svc"]);
        let s = sanitize_script("mkdir /var/svc\nadduser -S svc", &u).unwrap();
        let preamble_end = s.body.find("end canonical preamble").unwrap();
        let mkdir_pos = s.body.find("mkdir /var/svc").unwrap();
        assert!(preamble_end < mkdir_pos);
    }

    #[test]
    fn config_change_rejected() {
        let u = universe(&[]);
        let err = sanitize_script("echo x >> /etc/app.conf", &u).unwrap_err();
        assert_eq!(err.kind, OperationKind::ConfigChange);
        assert!(err.to_string().contains("configuration change"));
    }

    #[test]
    fn shell_activation_rejected() {
        let u = universe(&[]);
        let err = sanitize_script("add-shell /bin/bash", &u).unwrap_err();
        assert_eq!(err.kind, OperationKind::ShellActivation);
    }

    #[test]
    fn random_output_rejected() {
        let u = universe(&[]);
        let err = sanitize_script("dd if=/dev/urandom of=/etc/key bs=32 count=1", &u).unwrap_err();
        assert_eq!(err.kind, OperationKind::Unpredictable);
    }

    #[test]
    fn touch_collected_for_signing() {
        let u = universe(&[]);
        let s = sanitize_script("touch /var/run/app.pid /var/run/app.lock", &u).unwrap();
        assert_eq!(
            s.created_empty_files,
            vec!["/var/run/app.pid", "/var/run/app.lock"]
        );
        assert!(s.body.contains("touch /var/run/app.pid"));
    }

    #[test]
    fn mixed_account_line_removed_whole() {
        let u = universe(&["addgroup -S g", "adduser -S u"]);
        let s = sanitize_script("addgroup -S g && adduser -S -G g u", &u).unwrap();
        assert!(s.body.contains("# tsr: removed"));
        assert!(!s.body.contains("\naddgroup -S g &&"));
    }

    #[test]
    fn signature_commands_appended() {
        let mut body = String::from("echo hi\n");
        append_signature_commands(&mut body, &[("/etc/passwd".into(), "aabb".into())]);
        assert!(body.contains("tsr-setfattr /etc/passwd security.ima aabb"));
        let mut unchanged = String::from("x\n");
        append_signature_commands(&mut unchanged, &[]);
        assert_eq!(unchanged, "x\n");
    }

    #[test]
    fn sanitized_output_is_deterministic() {
        let u = universe(&["adduser -S b", "adduser -S a"]);
        let s1 = sanitize_script("adduser -S a", &u).unwrap();
        let s2 = sanitize_script("adduser -S a", &u).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn empty_script_sanitizes_to_empty() {
        let u = universe(&[]);
        let s = sanitize_script("", &u).unwrap();
        assert_eq!(s.body, "");
        assert!(!s.touches_accounts);
    }
}
