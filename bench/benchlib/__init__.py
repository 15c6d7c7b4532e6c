"""The repo's benchmark instrument (see ``bench/README.md``).

Everything here is owned by the benchmark: query mix, arrival generator,
drivers, segment-catalog generator, percentile helper and span recorder.
It imports ``repro`` only through the public packages listed in
:data:`ALLOWED_IMPORTS`; timing wrappers reach further in by dotted
string (``benchlib.probes``) so a refactor of those targets degrades a
metric to ``null`` instead of breaking the import.
"""

#: The only ``repro`` packages the instrument may import names from.
ALLOWED_IMPORTS = (
    "repro",
    "repro.mining",
    "repro.sql",
    "repro.ir",
    "repro.segments",
    "repro.serve",
)
