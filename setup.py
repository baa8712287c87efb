"""Packaging metadata (kept as setup.py for offline installs).

The offline environment used for this reproduction has no ``wheel`` package,
so PEP 660 editable installs (which build a wheel) fail.  Keeping a setup.py
lets ``pip install -e . --no-use-pep517 --no-build-isolation`` fall back to
the classic ``setup.py develop`` path, which works offline.
"""

from pathlib import Path

from setuptools import find_packages, setup

_ROOT = Path(__file__).parent
_README = _ROOT / "README.md"

setup(
    name="repro-ecnn",
    version="1.5.0",
    description=(
        "Reproduction of eCNN (MICRO 2019): block-based CNN accelerator "
        "models with a multi-stream serving runtime, a sharded "
        "multi-worker serving cluster, a worker-kill soak harness and a "
        "static plan verifier"
    ),
    long_description=_README.read_text(encoding="utf-8") if _README.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro-runtime=repro.runtime.cli:main",
            "repro-soak=repro.soak.cli:main",
            "repro-check=repro.check.cli:main",
        ]
    },
    classifiers=[
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering",
    ],
)
