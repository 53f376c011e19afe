"""Baseline protocols for the paper's comparisons (experiment E7, E9).

The paper's headline improvement is over Kokoris-Kogias, Malkhi and
Spiegelman [29]: ``Ω(n⁴)`` expected words and ``Ω(n)`` expected rounds
versus this work's ``Õ(n³)`` and ``O(1)``.  [29] has no open reference
implementation, so :mod:`repro.baselines.kms_adkg` implements a
*structurally analogous* leaderless comparator that preserves the cost
shape the comparison relies on (DESIGN.md section 2):

* every party reliably broadcasts its **un-aggregated** O(n)-word PVSS
  contribution with plain Bracha broadcast — ``n × O(n²·n) = Ω(n⁴)``
  words (this is precisely the paper's "first barrier": without
  aggregation, attaching enough secrets costs ``Ω(n⁴)``);
* agreement on which sharings to fold into the key runs through ``n``
  binary asynchronous Byzantine agreements (:mod:`repro.baselines.aba`,
  the classic BKR/ACS structure the paper's "second natural approach"
  describes), each with a weak common coin
  (:mod:`repro.baselines.common_coin`) from threshold-VRF shares over
  the dealer's transcript.  The coin sets how many rounds an ABA takes,
  never what it decides.
"""

from repro.baselines.aba import BinaryAgreement
from repro.baselines.common_coin import CoinHelper
from repro.baselines.kms_adkg import ACSBasedADKG

__all__ = ["BinaryAgreement", "CoinHelper", "ACSBasedADKG"]
