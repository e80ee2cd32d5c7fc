"""Class groups of imaginary quadratic fields and their applications.

Subpackage map:

- ntheory: shared elementary number theory (sieves, Tonelli-Shanks, ...)
- forms: binary quadratic forms, composition, class groups
- sweep: bulk class-number computation (one numpy kernel, one shared table)
- abelian: structure of finite abelian groups, suitability tests
- finitefield: small prime-power fields, dihedral trace sets
- dihedral: class characters and eigenform coefficients
- density: integer-set densities and the experiments built on them
- cohen_lenstra: automorphism weights and moment comparisons
- cli: the `quadclass` command line tool
"""

__version__ = "0.1.0"
