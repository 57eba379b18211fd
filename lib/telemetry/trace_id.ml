let digits = "0123456789abcdef"

let to_hex id =
  String.init 16 (fun k ->
      let nibble = Int64.shift_right_logical id (4 * (15 - k)) in
      digits.[Int64.to_int (Int64.logand nibble 0xfL)])
