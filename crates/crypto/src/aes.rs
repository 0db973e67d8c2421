//! AES-128 block cipher (FIPS 197).
//!
//! A straightforward table-based software implementation. The round
//! transformation uses the classic four T-tables derived from the S-box at
//! compile time. Only the forward cipher exists: CTR and CMAC, the only
//! modes the store uses, never decrypt a block. This mirrors the software
//! fallback path of the Intel SGX SDK crypto library on hardware without
//! AES-NI.
//!
//! This implementation is *not* constant-time with respect to memory access
//! patterns (table lookups are data-dependent), which is acceptable for a
//! simulation substrate; the paper's threat model likewise excludes cache
//! side channels (§3.3).

/// The AES S-box.
pub const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for AES-128 key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// The four encryption T-tables: each entry combines SubBytes, ShiftRows
/// and MixColumns for one input byte, so a round is 16 table lookups and
/// XORs. Computed at compile time from the S-box.
static TE: [[u32; 256]; 4] = build_te();

const fn build_te() -> [[u32; 256]; 4] {
    let mut te = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i] as u32;
        let s2 = xtime(SBOX[i]) as u32;
        let s3 = s2 ^ s;
        // MixColumns column for input byte at row 0: (2s, s, s, 3s).
        let w = (s2 << 24) | (s << 16) | (s << 8) | s3;
        te[0][i] = w;
        te[1][i] = w.rotate_right(8);
        te[2][i] = w.rotate_right(16);
        te[3][i] = w.rotate_right(24);
        i += 1;
    }
    te
}

/// Multiply `a` by `x` (i.e. by 2) in GF(2^8) with the AES polynomial.
#[inline]
const fn xtime(a: u8) -> u8 {
    (a << 1) ^ (((a >> 7) & 1) * 0x1b)
}

/// An expanded AES-128 key schedule (11 round keys).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
    /// Round keys as big-endian column words, for the T-table path.
    rk_words: [[u32; 4]; 11],
}

impl Aes128 {
    /// Expands `key` into the full round-key schedule.
    ///
    /// # Examples
    ///
    /// ```
    /// let aes = shield_crypto::aes::Aes128::new(&[0u8; 16]);
    /// let mut block = [0u8; 16];
    /// aes.encrypt_block(&mut block);
    /// ```
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        let mut rk_words = [[0u32; 4]; 11];
        for (r, rk) in round_keys.iter().enumerate() {
            for c in 0..4 {
                rk_words[r][c] =
                    u32::from_be_bytes(rk[4 * c..4 * c + 4].try_into().expect("4 bytes"));
            }
        }
        Self { round_keys, rk_words }
    }

    /// Encrypts one 16-byte block in place (T-table fast path).
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let rk = &self.rk_words;
        let mut s0 = u32::from_be_bytes(block[0..4].try_into().expect("4 bytes")) ^ rk[0][0];
        let mut s1 = u32::from_be_bytes(block[4..8].try_into().expect("4 bytes")) ^ rk[0][1];
        let mut s2 = u32::from_be_bytes(block[8..12].try_into().expect("4 bytes")) ^ rk[0][2];
        let mut s3 = u32::from_be_bytes(block[12..16].try_into().expect("4 bytes")) ^ rk[0][3];

        for round in rk.iter().take(10).skip(1) {
            let t0 = TE[0][(s0 >> 24) as usize]
                ^ TE[1][((s1 >> 16) & 0xff) as usize]
                ^ TE[2][((s2 >> 8) & 0xff) as usize]
                ^ TE[3][(s3 & 0xff) as usize]
                ^ round[0];
            let t1 = TE[0][(s1 >> 24) as usize]
                ^ TE[1][((s2 >> 16) & 0xff) as usize]
                ^ TE[2][((s3 >> 8) & 0xff) as usize]
                ^ TE[3][(s0 & 0xff) as usize]
                ^ round[1];
            let t2 = TE[0][(s2 >> 24) as usize]
                ^ TE[1][((s3 >> 16) & 0xff) as usize]
                ^ TE[2][((s0 >> 8) & 0xff) as usize]
                ^ TE[3][(s1 & 0xff) as usize]
                ^ round[2];
            let t3 = TE[0][(s3 >> 24) as usize]
                ^ TE[1][((s0 >> 16) & 0xff) as usize]
                ^ TE[2][((s1 >> 8) & 0xff) as usize]
                ^ TE[3][(s2 & 0xff) as usize]
                ^ round[3];
            s0 = t0;
            s1 = t1;
            s2 = t2;
            s3 = t3;
        }

        // Final round: SubBytes + ShiftRows only.
        let sb = |w: u32, shift: u32| (SBOX[((w >> shift) & 0xff) as usize] as u32) << shift;
        let f0 = sb(s0, 24) | sb(s1, 16) | sb(s2, 8) | sb(s3, 0);
        let f1 = sb(s1, 24) | sb(s2, 16) | sb(s3, 8) | sb(s0, 0);
        let f2 = sb(s2, 24) | sb(s3, 16) | sb(s0, 8) | sb(s1, 0);
        let f3 = sb(s3, 24) | sb(s0, 16) | sb(s1, 8) | sb(s2, 0);
        block[0..4].copy_from_slice(&(f0 ^ rk[10][0]).to_be_bytes());
        block[4..8].copy_from_slice(&(f1 ^ rk[10][1]).to_be_bytes());
        block[8..12].copy_from_slice(&(f2 ^ rk[10][2]).to_be_bytes());
        block[12..16].copy_from_slice(&(f3 ^ rk[10][3]).to_be_bytes());
    }

    /// Encrypts one block with the straightforward (non-table) round
    /// transformation — kept as a cross-check oracle for the fast path.
    pub fn encrypt_block_slow(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[10]);
    }

    /// Encrypts `input` into a fresh block, leaving the input untouched.
    pub fn encrypt_to(&self, input: &[u8; 16]) -> [u8; 16] {
        let mut out = *input;
        self.encrypt_block(&mut out);
        out
    }
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

// The state is stored column-major: state[4*c + r] is row r, column c.

#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
        state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS 197 Appendix B example.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                0x0b, 0x32
            ]
        );
    }

    /// FIPS 197 Appendix C.1 (AES-128 known answer test).
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let mut block = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a
            ]
        );
    }

    #[test]
    fn key_schedule_first_round_keys() {
        // FIPS 197 Appendix A.1: first expanded words for the sample key.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.round_keys[0], key);
        assert_eq!(
            aes.round_keys[1][..4],
            [0xa0, 0xfa, 0xfe, 0x17],
            "w[4] must match FIPS 197 A.1"
        );
    }

    /// The T-table fast path must agree with the straightforward round
    /// transformation on random inputs.
    #[test]
    fn fast_path_matches_slow_path() {
        let mut seed = 0xfeed_beefu64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as u8
        };
        for _ in 0..256 {
            let key: [u8; 16] = core::array::from_fn(|_| next());
            let plain: [u8; 16] = core::array::from_fn(|_| next());
            let aes = Aes128::new(&key);
            let mut fast = plain;
            let mut slow = plain;
            aes.encrypt_block(&mut fast);
            aes.encrypt_block_slow(&mut slow);
            assert_eq!(fast, slow);
        }
    }
}
