"""Dependability: security and reliability (CSE445 Unit 6).

Educational ciphers and key agreement, salted password storage with the
Figure 4 strength/match policy, bearer tokens, RBAC access control, and
the client-side reliability patterns (retry, timeout, checkpointing,
fault injection).  The circuit breaker and replica failover live in
:mod:`repro.resilience`.
"""

from .crypto import (
    DiffieHellman,
    RsaKeyPair,
    XorStreamCipher,
    caesar_decrypt,
    caesar_encrypt,
    generate_rsa_keypair,
    rsa_decrypt,
    rsa_encrypt,
    vigenere_decrypt,
    vigenere_encrypt,
)
from .auth import (
    AuthError,
    PasswordPolicy,
    PasswordVault,
    TokenIssuer,
    hash_password,
    verify_password,
)
from .access import AccessControl
from .reliability import (
    Checkpointer,
    FaultInjector,
    with_retry,
    with_timeout,
)

__all__ = [
    "caesar_encrypt", "caesar_decrypt", "vigenere_encrypt", "vigenere_decrypt",
    "XorStreamCipher", "RsaKeyPair", "generate_rsa_keypair", "rsa_encrypt",
    "rsa_decrypt", "DiffieHellman",
    "PasswordPolicy", "hash_password", "verify_password", "PasswordVault",
    "TokenIssuer", "AuthError",
    "AccessControl",
    "with_retry", "with_timeout", "Checkpointer", "FaultInjector",
]
