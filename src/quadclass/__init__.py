"""Class groups of imaginary quadratic fields and their applications.

Subpackage map:

- ntheory: shared elementary number theory (sieves, Tonelli-Shanks, ...)
- forms: binary quadratic forms, composition, class groups
- sweep: bulk class-number computation (one numpy kernel, one shared table)
- abelian: structure of finite abelian groups, suitability tests
- dihedral: class characters, eigenform coefficients and the degrees
  of their reductions mod p, read off the exponents
- finitefield: prime-power fields and dihedral trace sets, kept as the
  tests' oracle for those reductions; no command-line path imports it
- density: integer-set densities and the experiments built on them
- cohen_lenstra: automorphism weights and moment comparisons
- cli: the `quadclass` command line tool
"""

__version__ = "0.1.0"
