"""Provenance capture: make every published number auditable.

Generated artifacts (HTML reports, EXPERIMENTS.md) end with a footer
recording exactly what produced them: the git commit (and whether the tree
was dirty), the ``REPRO_SCALE`` in effect, the seeds, and the software
versions.  The numpy version is the one each cell recorded when it computed
its numbers (:func:`recorded_numpy`), so rendering from cached cells never
imports numpy.  Collection is best-effort — a missing ``git`` binary or a
non-repo checkout degrades to ``"unknown"`` rather than failing the run.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path

__all__ = ["collect_provenance", "recorded_numpy", "markdown_footer", "html_footer"]


def _git(args: list[str], cwd: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def collect_provenance(
    *, seeds: list[int] | None = None, root: str | Path | None = None
) -> dict:
    """Snapshot the run context as a flat JSON-serialisable dict.

    It names no numpy version: a cell adds the one that computed it, and a
    footer takes the cells' (:func:`recorded_numpy`).
    """
    from .. import __version__

    root = Path(root) if root is not None else Path.cwd()
    commit = _git(["rev-parse", "HEAD"], root)
    dirty = None
    if commit is not None:
        status = _git(["status", "--porcelain"], root)
        dirty = bool(status) if status is not None else None
    return {
        "git_commit": commit or "unknown",
        "git_dirty": dirty,
        "repro_scale": os.environ.get("REPRO_SCALE", "quick (default)"),
        "seeds": sorted(set(seeds or [])),
        "repro_version": __version__,
        "python": platform.python_version(),
        "generated_at": time.strftime("%Y-%m-%d %H:%M:%S %Z"),
    }


def recorded_numpy(provenances) -> str:
    """The numpy versions recorded in cell provenances, e.g. ``"2.1.3"``."""
    versions = sorted({p.get("numpy", "unknown") for p in provenances})
    return ", ".join(versions) or "unknown"


def _commit_label(prov: dict) -> str:
    commit = prov["git_commit"]
    label = commit[:12] if commit != "unknown" else commit
    if prov.get("git_dirty"):
        label += " (dirty tree)"
    return label


def markdown_footer(prov: dict) -> list[str]:
    """Footer lines for generated markdown (EXPERIMENTS.md)."""
    seeds = ", ".join(str(s) for s in prov["seeds"]) or "driver defaults"
    return [
        "---",
        "",
        "*Provenance: commit `" + _commit_label(prov) + "`, "
        f"`REPRO_SCALE={prov['repro_scale']}`, seeds {seeds}, "
        f"repro {prov['repro_version']}, python {prov['python']}, "
        f"numpy {prov['numpy']}; generated {prov['generated_at']}.*",
        "",
    ]


def html_footer(prov: dict) -> str:
    """Footer block for generated HTML reports."""
    seeds = ", ".join(str(s) for s in prov["seeds"]) or "driver defaults"
    return (
        '<footer class="provenance">Provenance: commit '
        f"<code>{_commit_label(prov)}</code> · "
        f"<code>REPRO_SCALE={prov['repro_scale']}</code> · seeds {seeds} · "
        f"repro {prov['repro_version']} · python {prov['python']} · "
        f"numpy {prov['numpy']} · generated {prov['generated_at']}</footer>"
    )
