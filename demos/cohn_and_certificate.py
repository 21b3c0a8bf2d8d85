##
## Walkthrough: the Cohn matrix C(z,w) = [[1+zw, z^2], [-w^2, 1-zw]].
## Five holomorphic factors always work; four work pointwise but not
## holomorphically, and a winding-number gap certifies why.
##

import json

from sl2factor import (
    ExactComplex, cohn_family_4, cohn_family_relations, cohn_holo_5,
    divisor_degrees, circle_winding, continuous_section_h3,
    holo_obstruction_certificate)

EC = ExactComplex

# the entire five-factor word, double precision and high precision
for z, w in ((0.5, 0.25), (2 + 1j, -1 + 0.5j), (3.0, 0.0)):
    f = cohn_holo_5(z, w)
    print(f"holo5 at z={z}, w={w}: residual {f.residual:.2e}")
f = cohn_holo_5(2 + 2j, 2 - 2j, dps=40)
print(f"holo5 at z=2+2i, w=2-2i (40 digits): residual {f.residual:.2e}")

# the pointwise four-factor family is exact on exact inputs
fam = cohn_family_4(EC(1), EC(2), EC(1))
print("\nfamily4 at (1,2), h3=1:",
      " ".join(f"{fac.side}({fac.entry})" for fac in fam.word.factors))
rels = cohn_family_relations(EC(1), EC(2),
                             [fac.entry for fac in fam.word.factors])
print("relation residuals:", [str(r) for r in rels])

# the continuous section's h3 has winding 2 on every circle ...
print("\nwinding of w^2/|w|^(3/2):",
      [circle_winding(lambda w: continuous_section_h3(0, w), r)
       for r in (0.25, 1.0, 4.0)])
# ... but a holomorphic h3 would be a unit times one of 1, z, w, zw,
# whose fiber degrees miss 2; sampled here, while the certificate reads
# each degree b - a off the exponents of z^a w^b
print("divisor-option degrees on {zw = 1/2}:", divisor_degrees(0.5))

cert = holo_obstruction_certificate(0.5)
print("\ncertificate:")
print(json.dumps(cert.to_json(), indent=2, sort_keys=True))
