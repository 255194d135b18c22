"""Lint configuration: the ``[tool.repro-lint]`` table and allowlists.

Configuration lives in ``pyproject.toml`` next to the code it governs::

    [tool.repro-lint]
    roundtrip-test = "tests/test_wire_roundtrip.py"
    float-scopes = ["src/repro/fields/*", "src/repro/sharing/*", ...]

    [tool.repro-lint.allow]
    DET002 = ["src/repro/observability/*"]   # tracing is wall-time
    DET003 = ["src/repro/paillier/*", ...]   # the crypto keygen seams

``allow`` maps a rule code to glob patterns of files where the rule is
*architecturally* satisfied — whole modules whose purpose is the thing
the rule polices (a tracer reads clocks; key generation draws OS
entropy).  Point exceptions inside ordinary modules should use the
inline ``# repro-lint: disable=CODE -- reason`` comment instead, which
keeps the justification next to the code.

A baseline file (``repro lint --write-baseline``) records the current
findings as JSON so a rule can be introduced before the tree is clean;
baselined findings are reported as suppressed, not failures.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.errors import AnalysisError

#: Rule-code -> file globs satisfied architecturally (see module docstring).
DEFAULT_ALLOW: dict[str, tuple[str, ...]] = {
    # The tracer *is* a wall clock; the socket transport needs real
    # deadlines for its fail-stop timeout semantics.  Neither value ever
    # feeds payload bytes (the cost-exactness hook would catch it).
    "DET002": (
        "src/repro/observability/*",
        "src/repro/wire/socket_transport.py",
    ),
    # The crypto keygen/challenge seams: safe-prime sampling, Paillier
    # encryption randomness fallbacks, Σ-protocol challenges, and ring
    # element sampling.
    "DET003": (
        "src/repro/paillier/*",
        "src/repro/nizk/*",
        "src/repro/fields/ring.py",
    ),
}

#: Packages whose arithmetic must stay exact (DET004 scope).
DEFAULT_FLOAT_SCOPES: tuple[str, ...] = (
    "src/repro/fields/*",
    "src/repro/sharing/*",
    "src/repro/paillier/*",
    "src/repro/nizk/*",
)

DEFAULT_ROUNDTRIP_TEST = "tests/test_wire_roundtrip.py"


@dataclass(frozen=True)
class LintConfig:
    """Resolved configuration for one lint run."""

    root: Path
    allow: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_ALLOW)
    )
    float_scopes: tuple[str, ...] = DEFAULT_FLOAT_SCOPES
    roundtrip_test: str = DEFAULT_ROUNDTRIP_TEST
    baseline: str | None = None

    def _rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def _matches(self, path: Path, patterns: Iterable[str]) -> bool:
        rel = self._rel(path)
        return any(
            fnmatch.fnmatch(rel, pat) or fnmatch.fnmatch(path.as_posix(), pat)
            for pat in patterns
        )

    def is_allowed(self, code: str, path: Path) -> bool:
        """Whether ``code`` is allowlisted for the whole of ``path``."""
        return self._matches(path, self.allow.get(code, ()))

    def in_float_scope(self, path: Path) -> bool:
        """Whether DET004 (exact arithmetic) applies to ``path``."""
        return self._matches(path, self.float_scopes)

    def roundtrip_test_path(self) -> Path:
        return self.root / self.roundtrip_test


def find_project_root(start: Path) -> Path:
    """The nearest ancestor of ``start`` holding a ``pyproject.toml``."""
    probe = start.resolve()
    if probe.is_file():
        probe = probe.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return probe


def _str_tuple(value: Any, context: str) -> tuple[str, ...]:
    if not (
        isinstance(value, list) and all(isinstance(v, str) for v in value)
    ):
        raise AnalysisError(f"{context} must be a list of glob strings")
    return tuple(value)


def load_config(root: Path | None = None) -> LintConfig:
    """Read ``[tool.repro-lint]`` from the project's pyproject.toml.

    Missing file or table yields the defaults; a malformed table raises
    :class:`~repro.errors.AnalysisError` rather than silently linting
    with the wrong allowlist.
    """
    root = find_project_root(root if root is not None else Path.cwd())
    pyproject = root / "pyproject.toml"
    table: dict[str, Any] = {}
    if pyproject.is_file():
        import tomllib

        try:
            with open(pyproject, "rb") as fh:
                table = tomllib.load(fh).get("tool", {}).get("repro-lint", {})
        except tomllib.TOMLDecodeError as exc:
            raise AnalysisError(f"{pyproject}: not valid TOML: {exc}") from exc
    if not isinstance(table, dict):
        raise AnalysisError("[tool.repro-lint] must be a table")

    allow = dict(DEFAULT_ALLOW)
    raw_allow = table.get("allow", {})
    if not isinstance(raw_allow, dict):
        raise AnalysisError("[tool.repro-lint.allow] must be a table")
    for code, patterns in raw_allow.items():
        allow[code] = _str_tuple(patterns, f"allow.{code}")

    return LintConfig(
        root=root,
        allow=allow,
        float_scopes=_str_tuple(
            table.get("float-scopes", list(DEFAULT_FLOAT_SCOPES)),
            "float-scopes",
        ),
        roundtrip_test=table.get("roundtrip-test", DEFAULT_ROUNDTRIP_TEST),
        baseline=table.get("baseline"),
    )
