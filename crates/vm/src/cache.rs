//! The workspace's cache-key source hash. The bytecode program cache
//! itself is `f90d_core::vm_cache`, a `f90d_machine::KeyedCache`.

/// FNV-1a over a byte string: `Compiled::source_hash` is this hash of
/// the source text.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
