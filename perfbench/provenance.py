"""Where a result came from: code version, toolchain, machine, seed."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional, Union

import numpy
import scipy

from repro.core.scoring_kernel import resolve_scoring_kernel

Value = Union[str, int, bool, None]


def _git(root: Path, *args: str) -> Optional[str]:
    """Output of a git command in ``root``, or None when ``root`` holds no
    repository (git is not asked to search the directories above it)."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(root: Path, seed: int, scoring_kernel: str) -> Dict[str, Value]:
    """The environment one result was measured in.  ``git_sha`` and
    ``git_dirty`` are None when ``root`` is not a git checkout."""
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha is not None else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "scoring_kernel": resolve_scoring_kernel(scoring_kernel),
        "seed": seed,
    }
