"""Package metadata and the legacy install path.

The offline environment has no ``wheel`` package, so PEP-517 editable
installs (which must build a wheel) fail;
``pip install -e . --no-use-pep517 --no-build-isolation`` takes the
classic ``setup.py develop`` path instead. All metadata lives in the
``setup()`` call below — there is no ``pyproject.toml``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Read, not imported: ``src/`` is not on the path while installing.
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "version.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="freqdedup",
    version=VERSION,
    description=(
        "Reproduction of 'Information Leakage in Encrypted Deduplication "
        "via Frequency Analysis' (DSN 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    extras_require={"accel": ["numpy"]},
    entry_points={"console_scripts": ["freqdedup = repro.cli:main"]},
)
