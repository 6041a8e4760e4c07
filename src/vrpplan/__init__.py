"""Planning toolkit for utility voluntary renewable programs.

Prices the renewable premium in closed form (``demand_pricing``, over the grid
curves of ``grid_model``), splits revenue with generators (``revenue_sharing``),
solves the long-run capacity limit (``equilibrium``), simulates the myopic
policy and certifies it (``trajectory``), checks every closed form by brute
force (``oracles``), calibrates grid curves by dispatch (``dispatch``), reads
scenario files (``scenario``) and runs the six commands (``cli``).  Each name
is imported from the module that defines it.
"""

__version__ = "0.1.0"
