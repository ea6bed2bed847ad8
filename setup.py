"""Setup shim for environments without the `wheel` package.

`pip install -e . --no-use-pep517 --no-build-isolation` uses the legacy
`setup.py develop` path, which works offline. Configuration lives in
pyproject.toml; this file only mirrors what legacy setuptools needs.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    # only core/heuristics.py::fit_empirical (the Figure 10 refit) needs it
    extras_require={"fit": ["scipy>=1.10"]},
)
