"""Finding model shared by every engine pass: severity, suppression,
fingerprints, and the committed-baseline workflow.

A finding's **fingerprint** is content-addressed — pass id, rule, path,
and the source text of the offending line (not its number) — so baselined
findings survive unrelated edits above them but expire when the offending
code itself changes.
"""

from __future__ import annotations

import enum
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Set

__all__ = [
    "Severity",
    "AnalysisFinding",
    "Suppressions",
    "Baseline",
]

#: the one suppression comment grammar across the whole engine:
#: ``# repro-lint: allow[rule1,rule2] -- reason``; the reason is mandatory
#: — a reasonless suppression suppresses nothing and the check CLI reports
#: it as a finding of its own.
_ALLOW_RE = re.compile(
    r"#\s*repro-lint:\s*allow\[([a-z0-9_,\s\-]+)\]\s*(?:--\s*(\S.*))?$"
)


class Severity(enum.Enum):
    """Maps onto SARIF result levels."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


@dataclass(frozen=True)
class AnalysisFinding:
    """One engine finding at a source location.

    ``rule`` is the stable rule id (also the suppression name); ``message``
    is the human explanation; ``snippet`` is the stripped source line the
    fingerprint hashes over.
    """

    pass_id: str
    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""
    severity: Severity = Severity.ERROR
    function: str = ""

    def format(self) -> str:
        where = f"{self.path}:{self.line}:{self.col + 1}"
        scope = f" [{self.function}]" if self.function else ""
        return f"{where}: {self.rule}: {self.message}{scope}"

    @property
    def fingerprint(self) -> str:
        """Stable content hash for baselining (line-number independent)."""
        basis = "\0".join(
            (self.pass_id, self.rule, self.path.replace("\\", "/"), self.snippet)
        )
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:20]


class Suppressions:
    """Per-file ``# repro-lint: allow[...]`` directives.

    Parsed once per module; :meth:`allowed` answers for a (line, rule)
    pair, and :meth:`reasonless` lists directives whose mandatory reason
    is missing — those are themselves reported by the check CLI, so a
    suppression can never silently lose its justification.
    """

    def __init__(self, source: str) -> None:
        self._by_line: Dict[int, Set[str]] = {}
        self._reasonless: List[int] = []
        self._used: Set[int] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _ALLOW_RE.search(text)
            if match is None:
                continue
            rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
            if match.group(2) is None:
                self._reasonless.append(lineno)
                continue  # reasonless: never suppresses anything
            self._by_line[lineno] = rules

    def allowed(self, line: int, rule: str) -> bool:
        rules = self._by_line.get(line)
        if rules is not None and rule in rules:
            self._used.add(line)
            return True
        return False

    def reasonless(self) -> List[int]:
        return list(self._reasonless)


class Baseline:
    """Committed set of accepted historical findings.

    Schema: ``{"version": 1, "entries": {fingerprint: reason}}``.  The
    check CLI subtracts baselined findings from its report and exits
    non-zero on anything new; ``--write-baseline`` snapshots the current
    findings.  The shipped tree carries an *empty* baseline — the file
    exists to document the workflow, not to carry debt.
    """

    VERSION = 1

    def __init__(self, entries: Mapping[str, str] | None = None) -> None:
        self.entries: Dict[str, str] = dict(entries or {})

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("version") != cls.VERSION:
            raise ValueError(
                f"{path}: unsupported baseline version {data.get('version')!r}"
            )
        entries = data.get("entries", {})
        if not isinstance(entries, dict):
            raise ValueError(f"{path}: 'entries' must be an object")
        return cls({str(k): str(v) for k, v in entries.items()})

    def save(self, path: Path) -> None:
        doc = {"version": self.VERSION, "entries": dict(sorted(self.entries.items()))}
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    def split(
        self, findings: Iterable[AnalysisFinding]
    ) -> tuple[List[AnalysisFinding], List[AnalysisFinding]]:
        """Partition into (new, baselined) by fingerprint."""
        new: List[AnalysisFinding] = []
        old: List[AnalysisFinding] = []
        for finding in findings:
            (old if finding.fingerprint in self.entries else new).append(finding)
        return new, old


@dataclass
class PassResult:
    """What one pass produced over the whole project."""

    pass_id: str
    findings: List[AnalysisFinding] = field(default_factory=list)
