let first = 1
let second = 2
