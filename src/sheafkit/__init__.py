"""sheafkit: a workbench for finite sites, sheaves, and internal logic.

Everything is finite and explicit: categories come with composition
tables, presheaves with restriction tables, topologies with their full
extension of covering sieves.  Each construction is checked against its
defining universal property by exhaustive search at this scale.
"""

__version__ = "0.1.0"
